import random
from fractions import Fraction

import pytest

from btbuildings import lattice
from btbuildings.field import INF, ExtensionDescriptor, LaurentModel, PAdicModel
from btbuildings.gf import GF, from_base, series_div, to_base
from btbuildings.lattice import (
    PrecisionError, VertexClass, _standard_neighbors, _triangularize_digits,
    all_neighbors, canonical_form, digit_ops, dual, gaussian_binomial,
    neighbors_by_colength, pair_index_normalized, skeleton_distance,
    standard_neighbor_subspaces, standard_vertex,
)
from btbuildings.linalg import matmul
from btbuildings.verify import random_unimodular, random_vertex

Q2 = PAdicModel.get(2)
Q3 = PAdicModel.get(3)
Q5 = PAdicModel.get(5)
F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)
F4T = LaurentModel.get(4)
F9T = LaurentModel.get(9)


def lattice_span_mod(model, cols, depth):
    """Oracle: the generated submodule of (O/pi^depth)^n as a frozenset of
    digit tuples, by exhaustive combination of the columns."""
    n = len(cols[0])
    q = model.residue_size
    reps = [model.from_digits([c for c in _digits(code, q, depth)])
            for code in range(q ** depth)]
    span = set()
    from itertools import product
    for coeffs in product(reps, repeat=len(cols)):
        vec = [model.zero()] * n
        for cf, col in zip(coeffs, cols):
            for i in range(n):
                vec[i] = vec[i] + cf * col[i]
        span.add(tuple(tuple(model.to_digits(x, depth)) for x in vec))
    return frozenset(span)


def _digits(code, q, k):
    out = []
    for _ in range(k):
        code, r = divmod(code, q)
        out.append(r)
    return out


def test_canonical_identity():
    v = canonical_form(Q2, [["1", "0"], ["0", "1"]])
    assert v == standard_vertex(Q2, 2)
    assert v.exponents == (0, 0)


def test_canonical_homothety_normalization():
    v = canonical_form(Q2, [["4", "0"], ["0", "4"]])
    assert v == standard_vertex(Q2, 2)


def test_canonical_spec_matrix_example():
    # rows of [[1,0],[1,pi]] generate the same lattice as rows of [[1,0],[0,pi]];
    # as column-generator input that is the transpose
    v = canonical_form(Q2, [["1", "1"], ["0", "2"]])
    w = canonical_form(Q2, [["1", "0"], ["0", "2"]])
    assert v == w
    # oracle: exhaustive equality of generated lattices at depth 3
    cols_a = [[Q2.element(1), Q2.element(1)], [Q2.element(0), Q2.element(2)]]
    a = lattice_span_mod(Q2, [[cols_a[i][j] for i in range(2)] for j in range(2)], 3)
    cols_b = [[Q2.element(1), Q2.element(0)], [Q2.element(0), Q2.element(2)]]
    b = lattice_span_mod(Q2, [[cols_b[i][j] for i in range(2)] for j in range(2)], 3)
    assert a == b


@pytest.mark.parametrize("model,n", [(Q2, 2), (Q2, 3), (F2T, 2), (F3T, 3)])
def test_canonical_stability_under_column_ops_and_scaling(model, n):
    rng = random.Random(12345)
    pi = model.uniformizer()
    for _ in range(125):
        v = random_vertex(model, n, rng)
        g = random_unimodular(model, n, rng)
        scale = pi ** rng.randrange(-2, 3)
        cols = [[x * scale for x in row]
                for row in matmul(model, v.primitive_matrix(), g)]
        assert canonical_form(model, cols) == v


@pytest.mark.parametrize("model,n", [(Q2, 2), (Q2, 3), (F2T, 2), (F3T, 2)])
def test_canonical_form_matches_span_oracle(model, n):
    # raw bases g * diag(pi^e) * h * pi^(-k), g and h unimodular: entries of
    # negative valuation, and mostly non-diagonal classes.  Exponents in
    # [0, 2] with a primitive determinant valuation D <= 3 keep the
    # exhaustive oracle at depth D+1 small.
    rng = random.Random(4711 + n)
    pi = model.uniformizer()
    nondiagonal = 0
    for _ in range(24):
        exps = [rng.randrange(0, 3) for _ in range(n)]
        while sum(exps) - n * min(exps) > 3:
            exps = [rng.randrange(0, 3) for _ in range(n)]
        diag = [[pi ** exps[i] if i == j else model.zero() for j in range(n)]
                for i in range(n)]
        shift = pi ** -(max(exps) + rng.randrange(1, 3))
        raw = matmul(model, matmul(model, random_unimodular(model, n, rng), diag),
                     random_unimodular(model, n, rng))
        raw = [[x * shift for x in row] for row in raw]
        minval = min(x.valuation() for row in raw for x in row)
        assert minval < 0
        v = canonical_form(model, raw)
        nondiagonal += not v.is_diagonal()
        depth = v.det_valuation() + 1
        prim = [[x * pi ** -minval for x in row] for row in raw]
        want = lattice_span_mod(model, [list(c) for c in zip(*prim)], depth)
        got = lattice_span_mod(model, [list(c) for c in zip(*v.primitive_matrix())],
                               depth)
        assert got == want
    assert nondiagonal >= 4


@pytest.mark.parametrize("model", [Q2, Q3], ids=repr)
def test_padic_val_equals_the_division_loop(model):
    # p = 2 reads the lowest set bit, odd p divides by p in a loop
    def val_by_division(a, M):
        if a == 0:
            return M
        v = 0
        while a % model.p == 0:
            a //= model.p
            v += 1
        return v
    rng = random.Random(f"pad-val:{model!r}")
    for M in (1, 2, 5, 13, 40):
        ops = digit_ops(model, M)
        residues = [0, 1, ops.mod - 1, model.p ** (M - 1)]
        residues += [rng.randrange(ops.mod) * model.p ** rng.randrange(M)
                     % ops.mod for _ in range(50)]
        for a in residues:
            assert ops.val(a) == val_by_division(a, M)


@pytest.mark.parametrize("model", [Q2, F2T])
def test_reduction_below_guard_precision_raises(model):
    # diag(1, pi^3) needs 3+1 digits; with fewer the reduction must refuse
    # rather than return a class it cannot certify
    def cols(ops, exps):
        one = ops.residue_coeff(1)
        return [[ops.shift_up(one, a) if i == j else ops.zero()
                 for i in range(len(exps))] for j, a in enumerate(exps)]
    for M in (1, 2, 3):
        ops = digit_ops(model, M)
        with pytest.raises(ArithmeticError):
            _triangularize_digits(ops, cols(ops, (0, 3)), 2)
    ops = digit_ops(model, 4)
    assert _triangularize_digits(ops, cols(ops, (0, 3)), 2)[0] == (0, 3)
    # diag(1, pi^2, pi^2) has D = 4 and shows every pivot at D digits, and
    # the guard refuses that D-digit pass; D + 1 digits pass
    with pytest.raises(PrecisionError):
        _triangularize_digits(ops, cols(ops, (0, 2, 2)), 3)
    ops = digit_ops(model, 5)
    assert _triangularize_digits(ops, cols(ops, (0, 2, 2)), 3)[0] == (0, 2, 2)


def test_dual_examples():
    v0 = standard_vertex(Q2, 3)
    assert dual(v0) == v0
    v = canonical_form(Q2, [["1", "0"], ["0", "2"]])
    assert dual(v) == canonical_form(Q2, [["2", "0"], ["0", "1"]])
    rng = random.Random(777)
    for model, n in [(Q2, 2), (F3T, 3)]:
        for _ in range(20):
            v = random_vertex(model, n, rng)
            assert dual(dual(v)) == v


def test_label_examples():
    assert standard_vertex(Q2, 4).label() == 0
    v = canonical_form(Q2, [["1", "0"], ["0", "2"]])
    assert v.label() == 1
    rng = random.Random(4242)
    for _ in range(30):
        w = random_vertex(Q2, 3, rng)
        assert dual(w).label() == (-w.label()) % 3


def _span(gf, rows, n):
    """The F_q-span of rows, by closing {0} under adding scaled rows."""
    q = gf.q
    s = {(0,) * n}
    for r in rows:
        add = []
        for c in range(1, q):
            rc = tuple(gf.mul(c, x) for x in r)
            add.append(rc)
        for base in list(s):
            for a in add:
                t = tuple(gf.add(x, y) for x, y in zip(base, a))
                if t not in s:
                    s.add(t)
        # close under addition
        changed = True
        while changed:
            changed = False
            items = list(s)
            for u in items:
                for v2 in items:
                    t = tuple(gf.add(x, y) for x, y in zip(u, v2))
                    if t not in s:
                        s.add(t)
                        changed = True
    return frozenset(s)


def _subspaces_oracle(q, n, w):
    """Independent oracle: the codim-w subspaces of F_q^n, by enumerating
    all k-tuples of vectors and collecting their spans (k = n - w)."""
    from itertools import product
    gf = GF.get(q)
    k = n - w
    vecs = [tuple(v) for v in product(range(q), repeat=n)]
    spans = set()
    for rows in product(vecs, repeat=k):
        sp = _span(gf, rows, n)
        if len(sp) == q ** k:
            spans.add(sp)
    return spans


def test_neighbor_counts_match_enumeration_oracle():
    # d=1, q=2, w=1: tree degree q+1 = 3
    assert len(neighbors_by_colength(standard_vertex(Q2, 2), 1)) == 3
    assert len(_subspaces_oracle(2, 2, 1)) == 3
    # d=2, q=2, w=1: 7 codim-1 subspaces of F_2^3
    assert len(neighbors_by_colength(standard_vertex(Q2, 3), 1)) == 7
    assert len(_subspaces_oracle(2, 3, 1)) == 7
    # d=2, q=2, w=2: symmetry
    assert len(neighbors_by_colength(standard_vertex(Q2, 3), 2)) == 7
    assert len(_subspaces_oracle(2, 3, 2)) == 7


@pytest.mark.parametrize("q,model", [(2, Q2), (3, Q3), (2, F2T), (3, F3T)])
def test_gaussian_binomial_counts(q, model):
    for d in range(1, 4):
        n = d + 1
        v = standard_vertex(model, n)
        for w in range(1, n):
            nb = neighbors_by_colength(v, w)
            assert len(nb) == gaussian_binomial(n, w, q)
            assert len(set(nb)) == len(nb)
            # symmetry
            assert gaussian_binomial(n, w, q) == gaussian_binomial(n, n - w, q)
        # unimodality on the first half
        counts = [gaussian_binomial(n, w, q) for w in range(1, n // 2 + 1)]
        assert all(counts[i] < counts[i + 1] for i in range(len(counts) - 1))


def _rref_bases(q, n, k):
    """All dimension-k subspaces of F_q^n as reduced row-echelon bases:
    pivot set lexicographic, then free entries in counting order."""
    from itertools import combinations
    out = []
    for pivots in combinations(range(n), k):
        free_pos = [(r, j) for r, p in enumerate(pivots)
                    for j in range(p + 1, n) if j not in pivots]
        for code in range(q ** len(free_pos)):
            rows = [[int(j == p) for j in range(n)] for p in pivots]
            for (r, j), val in zip(free_pos, _digits(code, q, len(free_pos))):
                rows[r][j] = val
            out.append(rows)
    return out


def _neighbors_reference(v, w):
    """The colength-w neighbors of v from a spanning set: the k = n - w
    rows of each rref basis lifted through T, the primitive matrix of v,
    and the n columns of pi T, reduced by `_triangularize_digits`."""
    n, model = v.n, v.model
    ops = digit_ops(model, 2 * (v.det_valuation() + w) + 2)
    tcols = v.digit_columns(ops)
    out = []
    for rref in _rref_bases(model.residue_size, n, n - w):
        gens = []
        for row in rref:
            col = [ops.zero()] * n
            for coeff, src in zip(row, tcols):
                if coeff:
                    lifted = ops.residue_coeff(coeff)
                    col = [ops.add(a, ops.mul(lifted, x)) for a, x in zip(col, src)]
            gens.append(col)
        gens += [[ops.shift_up(x, 1) for x in src] for src in tcols]
        exps, lower, _ = _triangularize_digits(ops, gens, n)
        out.append(VertexClass(model, exps, lower))
    return out


def _neighbor_total(q, n):
    return sum(gaussian_binomial(n, w, q) for w in range(1, n))


# every field and n = 2..5 with at most 1200 neighbors per class
DIFFERENTIAL = [(model, n) for model in (Q2, Q3, Q5, F2T, F3T, F4T, F9T)
                for n in (2, 3, 4, 5) if _neighbor_total(model.residue_size, n) <= 1200]


@pytest.mark.parametrize("model,n", DIFFERENTIAL,
                         ids=[f"{m!r}-n{n}" for m, n in DIFFERENTIAL])
def test_neighbors_match_the_spanning_set_reference(model, n):
    rng = random.Random(f"neighbors:{model!r}:{n}")
    for _ in range(2):
        v = random_vertex(model, n, rng)
        for w in range(1, n):
            full = neighbors_by_colength(v, w)
            assert full == _neighbors_reference(v, w)
            picked = sorted(rng.sample(range(len(full)), len(full) // 3))
            assert neighbors_by_colength(v, w, picked) == [full[j] for j in picked]


def _residue_rows(u):
    """The exponent-0 columns of a standard neighbor mod pi, which span its
    residue subspace: below the diagonal they hold one-digit codes where the
    exponent is 1 and 0 where it is 0."""
    assert set(u.exps) <= {0, 1}
    return [[u.lower[c][i - c - 1] if i > c else int(i == c) for i in range(u.n)]
            for c in range(u.n) if u.exps[c] == 0]


@pytest.mark.parametrize("model,n", [(Q2, 2), (Q2, 4), (Q3, 3), (Q5, 2),
                                     (F2T, 3), (F3T, 3), (F4T, 2), (F9T, 2)])
def test_standard_neighbors_are_canonical_and_all_subspaces(model, n):
    q = model.residue_size
    pi = model.uniformizer()
    for w in range(1, n):
        standard = _standard_neighbors(model, n, w)
        for rref, u in zip(_rref_bases(q, n, n - w), standard, strict=True):
            pivots = [row.index(1) for row in rref]
            cols = [[model.from_digits([x]) for x in row] for row in rref]
            cols += [[pi if i == j else model.zero() for i in range(n)]
                     for j in range(n) if j not in pivots]
            assert canonical_form(model, [list(r) for r in zip(*cols)]) == u
        residues = {_span(GF.get(q), _residue_rows(u), n) for u in standard}
        assert len(residues) == len(standard)
        assert residues == _subspaces_oracle(q, n, w)
        assert standard_neighbor_subspaces(model, n, w) == tuple(
            tuple(map(tuple, rows)) for rows in _rref_bases(q, n, n - w))


def test_each_neighbor_is_reduced_from_n_columns(monkeypatch):
    real = lattice._triangularize_digits
    widths = []

    def spy(ops, cols, n):
        widths.append((len(cols), n))
        return real(ops, cols, n)

    monkeypatch.setattr(lattice, "_triangularize_digits", spy)
    rng = random.Random(77)
    for model, n in [(Q2, 3), (F3T, 4), (F4T, 3)]:
        v = random_vertex(model, n, rng)
        for w in range(1, n):
            neighbors_by_colength(v, w)
    assert widths and all(k == n for k, n in widths)


def test_neighbor_labels_shift_by_colength():
    rng = random.Random(31)
    for model, n in [(Q2, 2), (Q2, 3), (F3T, 3)]:
        for _ in range(6):
            v = random_vertex(model, n, rng)
            for w in range(1, n):
                for nb in neighbors_by_colength(v, w):
                    assert nb.label() == (v.label() + w) % n


def test_neighbors_are_adjacent_and_deterministic():
    v = standard_vertex(F2T, 3)
    nb1 = neighbors_by_colength(v, 1)
    nb2 = neighbors_by_colength(v, 1)
    assert nb1 == nb2
    for u in nb1:
        assert skeleton_distance(v, u) == 1
        assert skeleton_distance(u, v) == 1
    with pytest.raises(ValueError):
        neighbors_by_colength(v, 3)


def test_directed_index_vs_bfs_oracle():
    # f(x,y) is the length of the minimal directed path x -> y
    for model in (Q2, F3T):
        root = standard_vertex(model, 2)
        # build a directed ball by repeated colength-1 expansion
        frontier = {root}
        seen = {root: 0}
        for step in range(1, 4):
            new = set()
            for u in frontier:
                for nb in neighbors_by_colength(u, 1):
                    if nb not in seen:
                        seen[nb] = step
                        new.add(nb)
            frontier = new
        # directed BFS distance from root must equal pair_index_normalized
        for v, dist in seen.items():
            assert pair_index_normalized(root, v) == dist


def test_all_neighbors_order():
    v = standard_vertex(Q2, 3)
    ns = all_neighbors(v)
    assert len(ns) == 7 + 7
    assert ns[:7] == neighbors_by_colength(v, 1)


def test_digit_and_exact_backends_agree():
    # canonical form is idempotent: recanonicalizing a neighbor's primitive
    # matrix (exact elements, converted to digits) gives the neighbor back
    rng = random.Random(2025)
    for model, n in [(Q2, 2), (Q3, 3), (F2T, 3), (F3T, 2)]:
        for _ in range(4):
            v = random_vertex(model, n, rng)
            for nb in all_neighbors(v)[:12]:
                assert canonical_form(model, nb.primitive_matrix()) == nb


def test_digit_backends_agree_on_shifts_past_the_precision():
    # pi^k x mod pi^M is 0 for every k >= M in both backends: a residue mod
    # p^M, and a packed Laurent vector masked to its M t-digits of 2m - 1
    # slots each, so the digit columns of a class with an exponent above M
    # multiply like any others
    M = 3
    for model in (Q2, Q3, F2T, F4T):
        ops = digit_ops(model, M)
        q = model.residue_size
        one = ops.residue_coeff(1)
        for k in range(2 * M + 2):
            shifted = ops.shift_up(one, k)
            assert ops.val(shifted) == min(k, M)
            assert (shifted == ops.zero()) == (k >= M)
            for code in (1, q + 1, q ** M - 1):
                got = ops.shift_up(ops.from_code(code, M), k)
                assert ops.code(got, M) == code * q ** k % q ** M
        cols = VertexClass(model, (0, 5), ((1,), ())).digit_columns(ops)
        assert ops.mul(cols[1][1], cols[0][1]) == ops.zero()



@pytest.mark.parametrize("model", [Q2, F4T])
def test_one_digit_backend_per_model_and_precision_holding_constants_only(model):
    """`digit_ops` builds one backend per (model, M), and canonical forms,
    neighbor enumerations and duals leave every backend as it was: a backend
    holds constants only, so no result of one computation is kept for the
    next.  The reductions run at precisions below 41 (asserted for the
    neighbors and the dual), so each runs on a backend checked here."""
    backends = {M: digit_ops(model, M) for M in range(1, 41)}
    assert all(digit_ops(model, M) is ops for M, ops in backends.items())
    before = {M: dict(vars(ops)) for M, ops in backends.items()}
    rng = random.Random(f"backends:{model.key()}")
    pi = model.uniformizer()
    for n in (2, 3):
        for _ in range(4):
            diag = [[pi ** rng.randrange(3) if i == j else model.zero()
                     for j in range(n)] for i in range(n)]
            v = canonical_form(model, matmul(
                model, matmul(model, random_unimodular(model, n, rng), diag),
                random_unimodular(model, n, rng)))
            D = v.det_valuation()
            assert lattice.guard_precision(D + n - 1) <= 40
            assert lattice.guard_precision((n - 1) * D, lost=D) <= 40
            for w in range(1, n):
                neighbors_by_colength(v, w)
            assert dual(dual(v)) == v
    assert {M: vars(ops) for M, ops in backends.items()} == before

def _integral(model, rng):
    """A seeded element of O: a polynomial over a unit denominator."""
    q = model.q
    num = [rng.randrange(q) for _ in range(rng.randrange(0, 6))]
    den = [rng.randrange(1, q)] + [rng.randrange(q)
                                   for _ in range(rng.randrange(0, 3))]
    return model.element(num, den)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 512])
def test_laurent_digit_backend_matches_field_arithmetic(q):
    """add, sub, mul, unit_inv and from_field of LauDigitOps equal the
    field model's arithmetic truncated mod t^M, above the GF table cap too.
    The expected digits (the model's `to_digits`) enter the backend through
    `from_code`, so packed vectors are compared with packed vectors."""
    model = LaurentModel.get(q)
    rng = random.Random(f"lau:{q}")
    t = model.uniformizer()
    for M in (1, 2, 4, 7):
        ops = digit_ops(model, M)

        def packed(low):
            return ops.from_code(from_base(low, q), M)

        def digits(x):
            return packed(model.to_digits(x, M))

        for _ in range(25):
            x, y = _integral(model, rng), _integral(model, rng)
            low = [rng.randrange(q) for _ in range(M)]
            assert ops.from_field(model.element(low) + t ** M * x) == packed(low)
            a, b = ops.from_field(x), ops.from_field(y)
            assert ops.add(a, b) == digits(x + y)
            assert ops.sub(a, b) == digits(x - y)
            assert ops.mul(a, b) == digits(x * y)
            if x.valuation() == 0:
                assert ops.unit_inv(a) == digits(model.one() / x)


class TupleLauDigitOps:
    """The tuple backend that the packed `LauDigitOps` replaced, kept as its
    differential oracle: O/t^M over F_q with digit vectors tuples of M GF
    ints, low first, added, subtracted and multiplied entry by entry through
    the GF tables, and unit inverses by power-series division."""

    def __init__(self, model, M):
        self.model = model
        self.M = M
        self.gf = model.gf
        self.q = model.q
        self._zero = (0,) * M
        self._add = self.gf.add_table
        self._sub = self.gf.sub_table
        self._mul = self.gf.mul_table

    def zero(self):
        return self._zero

    def from_field(self, x):
        return tuple(self.model.to_digits(x, self.M))

    def to_field(self, a, shift=0):
        return self.model.from_digits(list(a), shift)

    def val(self, a):
        for i, c in enumerate(a):
            if c:
                return i
        return self.M

    def add(self, a, b):
        t = self._add
        return tuple(t[x][y] for x, y in zip(a, b))

    def sub(self, a, b):
        t = self._sub
        return tuple(t[x][y] for x, y in zip(a, b))

    def mul(self, a, b):
        M = self.M
        out = [0] * M
        add = self._add
        for i, ai in enumerate(a):
            if ai:
                row = self._mul[ai]
                for j, bj in enumerate(b[:M - i], i):
                    if bj:
                        out[j] = add[out[j]][row[bj]]
        return tuple(out)

    def shift_down(self, a, k):
        return a[k:] + (0,) * k

    def shift_up(self, a, k):
        return ((0,) * k + a)[: self.M]

    def unit_inv(self, a):
        return tuple(series_div(self.gf, (1,), a, self.M))

    def trunc(self, a, k):
        return a[:k] + (0,) * (self.M - k)

    def code(self, a, k):
        return from_base(a[:k], self.q)

    def from_code(self, code, k):
        k = min(k, self.M)
        return tuple(to_base(code, self.q, k)) + (0,) * (self.M - k)

    def residue_coeff(self, r):
        return (r,) + (0,) * (self.M - 1)


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 9, 11, 25, 512, 1009, 65537, 2 ** 32 + 15])
def test_packed_laurent_backend_equals_the_tuple_oracle(q):
    """Each of the 14 methods of LauDigitOps, and `column_class` over it,
    equals the tuple backend on seeded vectors at every M from 1 to 40, so
    every slot width runs: bytes, and wider slots read one slice per slot
    (F_5 past M = 15, F_7 past 7, F_11 past 2, F_25 past 7, F_512 past 28,
    F_1009 and F_65537 at every M, and 128-bit slots for F_p,
    p = 2^32 + 15).  A tuple vector enters the packed backend by its
    code; `to_field` reads both sides back as field elements."""
    model = LaurentModel.get(q)
    rng = random.Random(f"packed:{q}")
    for M in range(1, 41):
        ops, ref = digit_ops(model, M), TupleLauDigitOps(model, M)

        def packed(v):
            return ops.from_code(ref.code(v, M), M)

        def vec():
            low = rng.randrange(M + 1)
            return (0,) * low + tuple(rng.randrange(q) for _ in range(M - low))

        assert ops.zero() == packed(ref.zero())
        for _ in range(3):
            a, b = vec(), vec()
            pa, pb = packed(a), packed(b)
            shift = rng.randrange(-2, 3)
            assert ops.to_field(pa, shift) == ref.to_field(a, shift)
            assert ops.val(pa) == ref.val(a)
            for name in ("add", "sub", "mul"):
                assert getattr(ops, name)(pa, pb) == \
                    packed(getattr(ref, name)(a, b)), name
            for tail in (a[1:], (0,) * (M - 1)):
                unit = (rng.randrange(1, q),) + tail
                assert ops.unit_inv(packed(unit)) == packed(ref.unit_inv(unit))
            for k in range(M + 2):
                assert ops.shift_down(pa, k) == packed(ref.shift_down(a, k)[:M])
                assert ops.shift_up(pa, k) == packed(ref.shift_up(a, k))
                assert ops.shift_up(pa, M + k) == ops.zero()
                assert ops.trunc(pa, k) == packed(ref.trunc(a, k))
                assert ops.code(pa, k) == ref.code(a, k)
                code = rng.randrange(q ** (k + 1))
                assert ops.from_code(code, k) == packed(ref.from_code(code, k))
            r = rng.randrange(q)
            assert ops.residue_coeff(r) == packed(ref.residue_coeff(r))
            x = _integral(model, rng)
            assert ops.from_field(x) == packed(ref.from_field(x))
            for backend in (ops, ref):
                with pytest.raises(ValueError):
                    backend.from_field(model.one() / model.uniformizer())
            n = rng.choice((2, 3))
            cols = [[vec() for _ in range(n)] for _ in range(n)]
            try:
                want = lattice.column_class(ref, [list(c) for c in cols])
            except PrecisionError:
                want = PrecisionError
            try:
                got = lattice.column_class(ops, [[packed(v) for v in c]
                                                 for c in cols])
            except PrecisionError:
                got = PrecisionError
            assert got == want


def _serialize_by_matrix(v):
    """Reference: the canonical matrix as FieldElements, the transposed
    primitive matrix times pi^(-m), written entry by entry."""
    model, n = v.model, v.n
    scale = model.uniformizer() ** -min(v.exps)
    prim = v.primitive_matrix()
    return [model.elem_str(prim[j][i] * scale)
            for i in range(n) for j in range(n)]


def test_serialize_equals_the_field_element_matrix():
    F2S = ExtensionDescriptor(F2T, e=2, f=1).extension
    F4U = ExtensionDescriptor(F2T, e=2, f=2).extension
    rng = random.Random(23)
    for model in (Q2, Q3, Q5, F2T, F3T, F4T, F9T, F2S, F4U):
        for n in (2, 3, 4):
            for spread in (0, 1, 3):
                for _ in range(4):
                    v = random_vertex(model, n, rng, spread)
                    assert v.serialize() == _serialize_by_matrix(v)


def test_serialization_roundtrip():
    rng = random.Random(8)
    for model, n in [(Q2, 2), (F3T, 2), (F2T, 3)]:
        for _ in range(10):
            v = random_vertex(model, n, rng)
            flat = v.serialize()
            mat = [[model.elem_parse(flat[i * n + j]) for j in range(n)] for i in range(n)]
            # the serialized matrix rows generate the lattice: transpose for input
            cols = [[mat[j][i] for j in range(n)] for i in range(n)]
            assert canonical_form(model, cols) == v
            # spec invariants on the exposed matrix
            assert min(v.exponents) == 0
            for i in range(n):
                for j in range(i):
                    assert mat[i][j].valuation() == INF  # upper triangular
