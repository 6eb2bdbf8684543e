"""Rigid points of products of Drinfeld spaces.

A rigid point is given by affine coordinates in an extension field K of
the factor fields; every quantity in scope is an exact power of the
absolute value of the tower root's uniformizer, so absolute values are
carried as rational exponents (AbsValue) and never as floats.
"""

from fractions import Fraction
from itertools import product

from .building import ApartmentPoint
from .errors import BudgetError
from .field import (INF, FieldElement, basis_valuations, enumerate_residues,
                    expand_over, tower_embed)
from .lattice import (column_class, digit_ops, dual, guard_precision,
                      inverse_column_minima)
from .linalg import rank
from .subdivision import chamber_chart


def val_root(x):
    """Valuation of x in units of the tower root's uniformizer (Fraction),
    or INF for zero."""
    v = x.valuation()
    if v == INF:
        return INF
    return Fraction(v, x.model.ramification)


class AbsValue:
    """|value| = |pi_root|^exponent; exponent INF encodes zero."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = exponent if exponent == INF else Fraction(exponent)

    @classmethod
    def of(cls, x):
        return cls(val_root(x))

    def is_zero(self):
        return self.exponent == INF

    def __eq__(self, other):
        return isinstance(other, AbsValue) and self.exponent == other.exponent

    def __hash__(self):
        return hash(self.exponent)

    def __le__(self, other):
        # |x| <= |y| means the exponent is >= the other exponent
        return self.exponent >= other.exponent

    def __lt__(self, other):
        return self.exponent > other.exponent

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return AbsValue(INF)
        return AbsValue(self.exponent + other.exponent)

    def __repr__(self):
        return "AbsValue(0)" if self.is_zero() else f"AbsValue(q^-({self.exponent}))"

    def serialize(self):
        return "inf" if self.is_zero() else str(self.exponent)


# ---------------------------------------------------------------------------
# sparse polynomials over a field model, variables keyed by (factor, j)
# ---------------------------------------------------------------------------

class Poly:
    """Sparse polynomial with FieldElement coefficients; variables are
    identified by arbitrary sortable keys such as (i, j)."""

    __slots__ = ("model", "terms")

    def __init__(self, model, pairs=()):
        """The sum of the terms c X^e over the (e, c) pairs: each monomial e
        is normalized by `_norm_exps`, the coefficients of equal monomials
        are added, and zero sums are dropped."""
        self.model = model
        terms = {}
        for exps, c in pairs:
            e = _norm_exps(exps)
            terms[e] = terms[e] + c if e in terms else c
        self.terms = {e: c for e, c in terms.items() if c.valuation() != INF}

    @classmethod
    def const(cls, model, c):
        c = c if isinstance(c, FieldElement) else model.element(c)
        return cls(model, [((), c)])

    @classmethod
    def var(cls, model, key):
        return cls(model, [(((key, 1),), model.one())])

    def __add__(self, other):
        return Poly(self.model, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return Poly(self.model, [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Poly(self.model, [(e1 + e2, c1 * c2)
                                 for e1, c1 in self.terms.items()
                                 for e2, c2 in other.terms.items()])

    def scale(self, c):
        c = c if isinstance(c, FieldElement) else self.model.element(c)
        return Poly(self.model, [(e, coef * c) for e, coef in self.terms.items()])

    def substitute(self, assign):
        """Substitute Poly values for variables (assign: key -> Poly)."""
        out = Poly.const(self.model, 0)
        for exps, c in self.terms.items():
            term = Poly.const(self.model, c)
            for key, n in exps:
                sub = assign[key]
                for _ in range(n):
                    term = term * sub
            out = out + term
        return out

    def evaluate(self, assign):
        """Evaluate at FieldElement values (assign: key -> FieldElement)."""
        acc = self.model.zero()
        for exps, c in self.terms.items():
            val = c
            for key, n in exps:
                val = val * assign[key] ** n
            acc = acc + val
        return acc

    def variables(self):
        keys = set()
        for exps in self.terms:
            for key, _n in exps:
                keys.add(key)
        return sorted(keys)

    def multidegree(self):
        deg = {}
        for exps in self.terms:
            for key, n in exps:
                deg[key] = max(deg.get(key, 0), n)
        return deg

    def __repr__(self):
        return f"Poly({self.terms!r})"


def _norm_exps(exps):
    """The normal form of a monomial given as (variable, exponent) pairs:
    the exponents of a repeated variable added, zero exponents dropped, and
    the pairs sorted by variable."""
    merged = {}
    for k, n in exps:
        merged[k] = merged.get(k, 0) + n
    return tuple(sorted((k, n) for k, n in merged.items() if n))


# ---------------------------------------------------------------------------
# rigid points
# ---------------------------------------------------------------------------

class RigidPoint:
    """K-rational point of a product of Drinfeld spaces, in affine
    coordinates (t_{i,0} = 1), with the norm tau(x) of each factor
    (`_FactorNorm`); validation checks that {1, x_{i,1}, .., x_{i,d_i}}
    is k_i-linearly independent by the rank of the norm's coordinates."""

    def __init__(self, descriptor, K, coords):
        self.descriptor = descriptor
        self.K = K
        self.coords = tuple(tuple(K.element(c) if not isinstance(c, FieldElement)
                                  else c for c in factor) for factor in coords)
        if len(self.coords) != descriptor.r:
            raise ValueError("coordinate factor count mismatch")
        for (model, d), factor in zip(descriptor.factors, self.coords):
            if len(factor) != d:
                raise ValueError("coordinate count must equal the dimension")
        norms = []
        for i in range(descriptor.r):
            norm = _FactorNorm(self, i)
            if rank(norm.model, [col for _vb, col in norm.gens]) != norm.n:
                raise ValueError(
                    f"factor {i}: coordinates lie on a rational hyperplane")
            norms.append(norm)
        self.norms = tuple(norms)

    def value(self, i, j):
        """The coordinate value x_{i,j}, with x_{i,0} = 1."""
        return self.K.one() if j == 0 else self.coords[i][j - 1]

    def assignment(self):
        out = {}
        for i, (model, d) in enumerate(self.descriptor.factors):
            for j in range(d + 1):
                out[(i, j)] = self.value(i, j)
        return out

    def serialize(self):
        return [[self.K.elem_str(c) for c in factor] for factor in self.coords]


# ---------------------------------------------------------------------------
# seminorm evaluation and the Schneider-Stuhler filtration
# ---------------------------------------------------------------------------

def eval_abs(x, p):
    """|p(x)| for a polynomial in the T_{i,j} (or t_{i,j}) variables with
    coefficients in K, evaluated exactly."""
    return AbsValue.of(p.evaluate(_assignment_for(x, p)))


def _assignment_for(x, p):
    """The coordinate values of x, checked to cover every variable of p."""
    assign = x.assignment()
    for key in p.variables():
        if key not in assign:
            raise ValueError(f"polynomial uses unknown variable {key}")
    return assign


def unimodular_representatives(model, n, dim):
    """Unimodular vectors over O/pi^n of length dim, normalized so the first
    unit coordinate is 1; exactly one representative per projective class."""
    reps = enumerate_residues(model, n)
    nonunits = [r for r in reps if r.valuation() == INF or r.valuation() >= 1]
    out = []
    for upos in range(dim):
        for head in product(nonunits, repeat=upos):
            for tail in product(reps, repeat=dim - upos - 1):
                out.append(head + (model.one(),) + tail)
    return out


def unimodular_count(q, n, dim):
    total = 0
    for upos in range(dim):
        total += (q ** (n - 1)) ** upos * (q ** n) ** (dim - upos - 1)
    return total


def _combine(coeffs, values, K):
    """sum_j a_j v_j in K over the nonzero coefficients a_j, which may lie
    in any model below K in its tower."""
    acc = K.zero()
    for a, v in zip(coeffs, values):
        if a.valuation() != INF:
            acc = acc + tower_embed(a, K) * v
    return acc


def _min_term(coeffs, values, e):
    """The least root valuation v(a_j)/e + v(v_j) over the nonzero a_j."""
    return min((Fraction(a.valuation()) / e + val_root(v)
                for a, v in zip(coeffs, values) if a.valuation() != INF),
               default=INF)


class _FactorNorm:
    """The norm nu(alpha) = v_K(sum_j alpha_j x_{i,j}) on k_i^{d+1} of one
    factor, in units of v_K, so that it takes integer values.

    With c_{j,beta} the coordinates of x_{i,j} in the orthogonal basis beta
    of K over k_i (`expand_over`) and e the ramification of K over k_i,
    nu(alpha) = min_beta (v_K(beta) + e v(sum_j alpha_j c_{j,beta})): the
    point tau(x) of the building (Goldman-Iwahori)."""

    def __init__(self, x, i):
        model, d = x.descriptor.factors[i]
        self.model = model
        self.n = d + 1
        self.e = x.K.ramification // model.ramification
        values = [x.value(i, j) for j in range(d + 1)]
        self.vals = [v.valuation() for v in values]
        self.vmin, self.vmax = min(self.vals), max(self.vals)
        coords = [expand_over(v, model) for v in values]
        self.gens = [(vb, col) for vb, col
                     in zip(basis_valuations(x.K, model), zip(*coords))
                     if any(c.valuation() != INF for c in col)]

    def bound(self, n):
        """n/e_i + min_j v(x_{i,j}), the X[n] bound, in units of v_K."""
        return n * self.e + self.vmin

    def _orders(self, lam):
        """m_beta = ceil((lam - v_K(beta)) / e) per generator, and the least
        h >= 0 that makes every pi^(h - m_beta) c_beta integral."""
        ms = [-((vb - lam) // self.e) for vb, _col in self.gens]
        h = max([0] + [m - c.valuation() for m, (_vb, col) in zip(ms, self.gens)
                       for c in col if c.valuation() != INF])
        return ms, h

    def work(self, lam, k=0):
        """Predicted work of `_span(lam, k)`: digit precision times the
        entries of the generator matrix."""
        h = self._orders(lam)[1]
        return guard_precision(self.n * (h + k)) * self.n * (self.n + len(self.gens))

    def _span(self, lam, k):
        """(class of S, h - minval) for S = pi^k O^{d+1} + sum_beta
        pi^(-m_beta) O c_beta, the dual of {alpha in pi^(-k) O^{d+1} :
        nu(alpha) >= lam}.

        The generators of pi^h S are integral and pi^h S >= pi^(h+k)
        O^{d+1}, so v(det pi^h S) <= (d+1)(h + k) bounds the precision."""
        ms, h = self._orders(lam)
        model, n = self.model, self.n
        ops = digit_ops(model, guard_precision(n * (h + k)))
        pi = model.uniformizer()
        diag = ops.from_field(pi ** (h + k))
        cols = [[diag if r == j else ops.zero() for r in range(n)]
                for j in range(n)]
        for m, (_vb, col) in zip(ms, self.gens):
            scale = pi ** (h - m)
            cols.append([ops.from_field(c * scale) for c in col])
        cls, minval = column_class(ops, cols)
        return cls, h - minval

    def reaches(self, lam):
        """Whether nu(alpha) >= lam for some primitive alpha in O^{d+1}:
        those alpha are the primitive vectors of the dual of the k = 0
        `_span` lattice S, so one exists iff S does not contain pi^(-1)
        O^{d+1}, i.e. iff h - minval - 1 + min v(P^-1) < 0."""
        cls, shift = self._span(lam, 0)
        return shift - 1 + min(inverse_column_minima(cls)) < 0


def _check_budget(work, budget):
    if work > budget:
        raise BudgetError(f"the lattice tests predict {work} digit operations "
                          f"(> budget {budget})")


def _membership_tests(x, n, closed):
    """The (factor norm, lam) lattice tests deciding X[n] (closed: max
    v(alpha.x) <= bound) or X(n) (strict: < bound), the max over primitive
    alpha in O^{d+1} and bound = n/e_i + min_j v(x_{i,j}).  nu takes values
    in (1/e_K)Z, so max <= bound iff no alpha reaches bound + 1/e_K."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [(norm, norm.bound(n) + (1 if closed else 0)) for norm in x.norms]


def omega_membership(x, n, closed=True, budget=200000):
    """x in X[n] (closed) or X(n) (strict), one lattice test per factor
    (`_membership_tests`)."""
    tests = _membership_tests(x, n, closed)
    _check_budget(sum(norm.work(lam) for norm, lam in tests), budget)
    return not any(norm.reaches(lam) for norm, lam in tests)


def membership_depth(x, max_n=3, budget=200000):
    """Smallest n >= 1 with x in X[n], if it is at most max_n; else None.

    Per factor, the max of nu over primitive alpha is found by bisection
    between max_j v(x_{i,j}) (reached by a unit vector) and the X[max_n]
    bound plus 1/e_K."""
    caps = [norm.bound(max_n) + 1 for norm in x.norms]
    if any(norm.vmax >= cap for norm, cap in zip(x.norms, caps)):
        return None
    _check_budget(sum(((cap - norm.vmax - 1).bit_length() + 1) * norm.work(cap)
                      for norm, cap in zip(x.norms, caps)), budget)
    depth = 1
    for norm, cap in zip(x.norms, caps):
        if norm.reaches(cap):
            return None
        lo, hi = norm.vmax, cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if norm.reaches(mid):
                lo = mid
            else:
                hi = mid
        depth = max(depth, -((norm.vmin - lo) // norm.e))
    return depth if depth <= max_n else None


def tau_coordinates(x):
    """The apartment point with exponents v_{k_i}(x_{i,j}) = v_K(x_{i,j}) / e,
    e = e(K/k_i), read off the factor norms: this is tau_Lambda(tau(x))."""
    return ApartmentPoint([(None, tuple(Fraction(v, norm.e) for v in norm.vals))
                           for norm in x.norms])


# ---------------------------------------------------------------------------
# norm diagonalization
# ---------------------------------------------------------------------------

def diagonalize_norm(x, i, n, budget=200000):
    """A k_i-basis (v_0..v_d), as coordinate rows in the T-basis, and the
    exponents e_i v(v_j(x)) that make the norm of factor i diagonal:
    |sum a_j v_j(x)| = max_j |a_j| |v_j(x)| for all a in k_i^{d+1}.

    With vmin = min_j v_K(x_{i,j}) and vmin <= lam < vmin + e, x in X[n]
    gives pi O^{d+1} <= N_lam = {alpha : nu(alpha) >= lam} <= pi^(-n)
    O^{d+1}, so N_lam is the dual of the `_span` lattice with k = n.  As
    N_{lam+e} = pi N_lam, the distinct classes of these N_lam form the
    whole chain L_0 > .. > L_m > pi L_0; every N_lam splits in a basis
    adapted to it (`chamber_chart`), which is the max-property."""
    tests = _membership_tests(x, n, True)
    norm = x.norms[i]
    lams = range(norm.vmin, norm.vmin + norm.e)
    _check_budget(sum(nm.work(lam) for nm, lam in tests)
                  + sum(norm.work(lam, n) for lam in lams), budget)
    if any(nm.reaches(lam) for nm, lam in tests):
        retry = membership_depth(x, max_n=n + 3, budget=budget)
        hint = f"retry with depth {retry}" if retry else \
            f"no membership found up to depth {n + 3}"
        raise ValueError(f"certification depth insufficient: x not in X[{n}]; {hint}")
    chain = dict.fromkeys(dual(norm._span(lam, n)[0]) for lam in lams)
    B, _order, _js = chamber_chart(list(chain))
    pi = norm.model.uniformizer()
    xs = [x.value(i, j) for j in range(norm.n)]
    rows = []
    for col in zip(*B):  # each column of the chart, scaled to be primitive
        scale = pi ** -min(c.valuation() for c in col)
        rows.append([c * scale for c in col])

    def exp(row):
        return norm.model.ramification * val_root(_combine(row, xs, x.K))
    # rows by exponent, then by their first unit coordinate
    rows.sort(key=lambda row: (exp(row), next(
        j for j, c in enumerate(row) if c.valuation() == 0)))
    return rows, tuple(exp(row) for row in rows)


def verify_diagonal(x, i, basis, depth, budget=200000):
    """Independent re-verification of the diagonality property at the given
    depth: all unimodular a mod pi_i^{depth} satisfy the max-property."""
    model, d = x.descriptor.factors[i]
    xs = [x.value(i, k) for k in range(d + 1)]
    values = [_combine(row, xs, x.K) for row in basis]
    count = unimodular_count(model.residue_size, depth, d + 1)
    if count > budget:
        raise BudgetError(f"verification needs {count} vectors "
                          f"(> budget {budget})")
    for alpha in unimodular_representatives(model, depth, d + 1):
        if val_root(_combine(alpha, values, x.K)) != \
                _min_term(alpha, values, model.ramification):
            return False
    return True


# ---------------------------------------------------------------------------
# Gauss seminorms
# ---------------------------------------------------------------------------

class GaussSeminorm:
    """Per factor: an apartment basis (None = standard, else a matrix over
    k_i whose columns express e_{i,k} in the T_{i,j} coordinates) and a
    rational exponent vector xi with rho(e_{i,k}) = |pi_root|^{xi_k}."""

    def __init__(self, descriptor, data):
        self.descriptor = descriptor
        self.data = tuple((basis, tuple(Fraction(v) for v in exps))
                          for basis, exps in data)


def gauss_eval(b, p, K):
    """Exact max-of-monomials evaluation: substitute the linear change of
    basis, then take the max of |a_N| prod rho(e)^{n} over monomials."""
    descriptor = b.descriptor
    assign = {}
    exps_of = {}
    for i, ((model, d), (basis, exps)) in enumerate(zip(descriptor.factors, b.data)):
        for j in range(d + 1):
            if basis is None:
                assign[(i, j)] = Poly.var(K, ("e", i, j))
            else:
                acc = Poly.const(K, 0)
                for k in range(d + 1):
                    c = basis[j][k]
                    if c.valuation() != INF:
                        acc = acc + Poly.var(K, ("e", i, k)).scale(tower_embed(c, K))
                assign[(i, j)] = acc
        for k in range(d + 1):
            exps_of[("e", i, k)] = exps[k]
    return AbsValue(_least_term(p.substitute(assign), exps_of))


def _least_term(q, weights):
    """min over the monomials c X^n of q of v(c) + sum_k n_k weights[k], in
    root units; INF for q = 0."""
    return min((val_root(c) + sum(n * weights[key] for key, n in mono)
                for mono, c in q.terms.items()), default=INF)


# ---------------------------------------------------------------------------
# deformation rho_t
# ---------------------------------------------------------------------------

def deform(x, t_exponent, p, i=0):
    """rho_t(p) = max_N t^{|N|} |D_N(p)(x)| for one factor, with t given as
    |pi_root|^{t_exponent} (t_exponent = 0 means t = 1; INF means t = 0,
    where only D_0(p)(x) = p(x) remains).

    D_N(sum a_I x^I) = sum_{I >= N} prod C(i_k, n_k) a_I x^I is, by the
    binomial theorem x^I prod (1 + X_k)^{i_k} = sum_N prod C(i_k, n_k) x^I
    X^N, the coefficient of X^N in p(x_1 (1 + X_1), .., x_d (1 + X_d)), the
    other variables at their values.  So rho_t(p) is the Gauss seminorm of
    that one polynomial in the X_k with every radius t."""
    if t_exponent != INF and t_exponent < 0:
        raise ValueError("t_exponent must be >= 0")
    if any(nn < 0 for mono in p.terms for _key, nn in mono):
        raise ValueError("rho_t is defined for polynomials: negative exponent")
    assign = _assignment_for(x, p)
    if t_exponent == INF:
        return AbsValue.of(p.evaluate(assign))
    K, d = x.K, x.descriptor.factors[i][1]
    taylor = {key: Poly.const(K, c) for key, c in assign.items()}
    for j in range(1, d + 1):  # x_j (1 + X_j), X_j keyed like x_j
        c = assign[(i, j)]
        taylor[(i, j)] = Poly(K, [((), c), ((((i, j), 1),), c)])
    return AbsValue(_least_term(p.substitute(taylor),
                                dict.fromkeys(taylor, t_exponent)))


# ---------------------------------------------------------------------------
# dual coordinates on apartment points
# ---------------------------------------------------------------------------

def dual_coords(p, i):
    """Exponents of the dual coordinates s_{i,j} at a diagonal point:
    s_{i,j} = -t_{i,j}-exponent + t_{i,0}-exponent."""
    basis, exps = p.factors[i]
    if basis is not None:
        raise ValueError("dual coordinates are read off in the standard basis")
    return tuple(-(exps[j] - exps[0]) for j in range(len(exps)))
