"""O_k-lattices in V = k^{d+1}: canonical forms, homothety classes, the
group action, duals, labels, and residue-space neighbor enumeration.

A homothety class is stored through its primitive representative
(L <= O^n, L not <= pi O^n) in lower-triangular column-generator form:
column c has its first nonzero entry pi^{a_c} on the diagonal, and the
entry in row r > c is the canonical residue mod pi^{a_r}.  This form is
unique, hashable and cheap to produce.  The exposed canonical matrix,
which `VertexClass.serialize` writes from the digits, is the transposed,
min-diagonal-0 rescaling of the same data.

There is one reduction, `_triangularize_digits`, over pi-digit vectors in
O/pi^M, one entry into it, `column_class`, and one precision rule,
`guard_precision`: M = lost + bound + 1 digits for generators that lose
`lost` digits, of a lattice of determinant valuation at most `bound`.  The
reduction's guard certifies each pass or raises PrecisionError (an
ArithmeticError), never a wrong class.  `action(model, g)` reduces g
itself at a precision searched up to B+1 for a height bound B on v(det g),
with no field-level elimination, and computes every image [g L] as a
digit product (`_digit_product`): `canonical_form` of an outside basis is
the image of the standard class, and the neighbors of [L] are the images
[T U] of the standard neighbors U under its primitive matrix T.  Every
question about T^{-1} reads Y = pi^D T^{-1}, D = v(det T), from one
forward substitution (`_scaled_inverse`): `dual` reduces the rows of Y,
`inverse_column_minima` reads the valuations of its columns, and the digit
product Y_x T_y gives the minimal containment shift of a pair of classes
(`class_pair_min`) and the residue matrix at that shift
(`class_pair_residue`).  `subdivision` and `drinfeld` reduce their digit
generators through `column_class`.  The tests check the reduction against
an exhaustive span oracle over O/pi^k.

A digit vector of O/pi^M is one int in both backends, and no module outside
this one reads its layout: `PadDigitOps` keeps a residue in [0, p^M), and
`LauDigitOps` packs the vector by Kronecker substitution, as its docstring
describes.  `digit_ops(model, M)` builds one backend per (model, M) on first
use, and a backend holds constants only.
"""

from functools import lru_cache
from itertools import combinations

from .field import FieldElement, PAdicModel
from .gf import from_base, pord, to_base


# ---------------------------------------------------------------------------
# digit backends: elements of O/pi^M
# ---------------------------------------------------------------------------

class PadDigitOps:
    """O/p^M for the p-adic model; digit vectors are ints in [0, p^M)."""

    def __init__(self, model, M):
        self.model = model
        self.M = M
        self.p = model.p
        self.mod = model.p ** M

    def zero(self):
        return 0

    def from_field(self, x):
        return self.model.residue(x, self.M)

    def to_field(self, a, shift=0):
        return self.model.from_digits(to_base(a, self.p, self.M), shift)

    def val(self, a):
        if a == 0:
            return self.M
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def add(self, a, b):
        return (a + b) % self.mod

    def sub(self, a, b):
        return (a - b) % self.mod

    def mul(self, a, b):
        return (a * b) % self.mod

    def shift_down(self, a, k):
        return a // (self.p ** k)

    def shift_up(self, a, k):
        return (a * self.p ** k) % self.mod

    def unit_inv(self, a):
        return pow(a, -1, self.mod)

    def trunc(self, a, k):
        return a % (self.p ** k)

    def code(self, a, k):
        """Residue of a mod pi^k as an int in [0, q^k)."""
        return a % (self.p ** k)

    def from_code(self, code, k):
        return code % self.mod

    def residue_coeff(self, r):
        """Single residue-field digit -> digit vector."""
        return r


class LauDigitOps:
    """O/t^M for a Laurent model over F_q, q = p^m, in a layout packed by
    Kronecker substitution (Harvey, "Faster polynomial multiplication via
    multipoint Kronecker substitution", JSC 2009).

    A vector is the int sum c_ij 2^(b (W i + j)): slot (i, j) holds the F_p
    coefficient c_ij of t^i w^j, with W = 2m - 1 slots per t-digit, so the
    w-degrees up to 2m - 2 of a product do not overlap.  A slot of a product
    of two vectors sums at most M m products of two coefficients, so the
    slot width b is the least of 8, 16, 32, 64, .. bits that holds
    M m (p - 1)^2: byte slots for F_2, F_3, F_4 and F_9 at the precisions the
    windows and queries use.  That width holds the 2p - 1 of a sum, and the
    (p - 1) + (m - 1)(p - 1)^2 of a fold, too.  Vectors are kept normalized:
    c_ij < p, and c_ij = 0 for j >= m and for i >= M.  Every constant of the
    backend is an int of O(M) bits or a 256-byte table.

    add and sub are one int operation and a per-slot reduction mod p (XOR
    for p = 2).  mul is one int product masked to M digits, reduced per slot
    (a mask for p = 2, a bytes.translate for byte slots, a slice per slot
    for wider ones) and with the w-degrees >= m folded down by the modulus
    of F_q.  val, the shifts and trunc are bit operations; unit_inv inverts
    a constant in F_q and any other unit by Newton's iteration
    x <- x (2 - a x), and from_field multiplies the packed numerator by the
    inverse of the packed denominator."""

    def __init__(self, model, M):
        gf = model.gf
        p, m = gf.p, gf.m
        W = 2 * m - 1
        nbytes = 1
        while 8 * nbytes < (M * m * (p - 1) ** 2).bit_length():
            nbytes *= 2
        self.model, self.M, self.gf = model, M, gf
        self.p, self.m, self.W = p, m, W
        self.bits = bits = 8 * nbytes
        self.step = step = bits * W          # bits per t-digit
        self.t = 1 << step                   # the vector of t
        self.full = full = (1 << step * M) - 1
        self.slot = slot = (1 << bits) - 1
        self.binary = p == 2
        size = M * W * nbytes                # bytes of a vector
        every = sum(1 << step * i for i in range(M))   # bit 0 of each t-digit
        used = sum(every << bits * j for j in range(m))
        ones = sum(every << bits * j for j in range(W))
        # a sum x of slots below 2p: x - p [x >= p] in every slot, with the
        # flag read off the top bit of x + 2^(b-1) - p (p <= 2^(b-1), since
        # (p - 1)^2 < 2^b)
        self.top = bits - 1
        self.pv, self.hi = p * used, used << bits - 1
        self.off = self.hi - self.pv
        if nbytes == 1:
            self.slots = lambda x: x.to_bytes(size, "little")
            self.pack = lambda vals: int.from_bytes(bytes(vals), "little")
        else:
            def slots(x):
                buf = x.to_bytes(size, "little")
                return [int.from_bytes(buf[i:i + nbytes], "little")
                        for i in range(0, size, nbytes)]

            def pack(vals):
                return int.from_bytes(b"".join(v.to_bytes(nbytes, "little")
                                               for v in vals), "little")
            self.slots, self.pack = slots, pack
        if p == 2:
            def reduce(x):
                return x & ones
        elif nbytes == 1:
            table = bytes(v % p for v in range(256))

            def reduce(x):
                return int.from_bytes(x.to_bytes(size, "little")
                                      .translate(table), "little")
        else:
            slots, pack = self.slots, self.pack

            def reduce(x):
                return pack([v % p for v in slots(x)])
        # w^j mod g for m <= j <= 2m - 2, in the slots of w^0 .. w^(m-1)
        low, digit0 = used * slot, every * slot
        folds = []
        r = [0] * (m - 1) + [1]
        for j in range(m, W):
            r = [(a - r[-1] * g) % p for a, g in zip([0] + r[:-1], gf.modulus)]
            folds.append((bits * j, sum(c << bits * i for i, c in enumerate(r))))
        if m == 1:
            def product(x):
                return reduce(x & full)
        else:
            def product(x):
                x = reduce(x & full)
                acc = x & low
                for shift, image in folds:
                    acc += (x >> shift & digit0) * image
                return reduce(acc)
        self.product = product

    # -- the GF digits of a vector --

    def pack_digits(self, digits):
        """The vector whose t^i w^j coefficient is digits[m i + j]."""
        m = self.m
        if m == 1:
            return self.pack(digits)
        gap = [0] * (m - 1)
        slots = []
        for i in range(0, len(digits), m):
            slots += digits[i:i + m]
            slots += gap
        return self.pack(slots)

    def digits(self, a, k):
        """The F_p coefficients of t^i w^j in a for i < k, at m i + j."""
        slots = self.slots(a)
        if self.m == 1:
            return list(slots[:k])
        W, m = self.W, self.m
        return [slots[W * i + j] for i in range(k) for j in range(m)]

    def scalar(self, r):
        """The vector of the GF int r at t^0."""
        return r if r < self.p else self.from_gf((r,))

    def digit0(self, a):
        """The t^0 digit of a as a GF int."""
        if self.m == 1:
            return a & self.slot
        out = 0
        for j in range(self.m - 1, -1, -1):
            out = out * self.p + (a >> self.bits * j & self.slot)
        return out

    def from_gf(self, coeffs):
        """The vector of the t-digits `coeffs`, GF ints, low first."""
        if self.m == 1:
            return self.pack(coeffs)
        p, m = self.p, self.m
        return self.pack_digits([d for c in coeffs for d in to_base(c, p, m)])

    def to_gf(self, a):
        """The M t-digits of a as GF ints, low first."""
        p, m = self.p, self.m
        digits = self.digits(a, self.M)
        if m == 1:
            return digits
        return [from_base(digits[i:i + m], p)
                for i in range(0, len(digits), m)]

    # -- the digit-backend methods --

    def zero(self):
        return 0

    def from_field(self, x):
        num, den = x.raw
        if not num:
            return 0
        k = pord(den)
        if pord(num) < k:
            raise ValueError("negative valuation, not in O")
        a = self.from_gf(num[k:k + self.M])
        if len(den) == k + 1 and den[k] == 1:
            return a
        return self.mul(a, self.unit_inv(self.from_gf(den[k:k + self.M])))

    def to_field(self, a, shift=0):
        return self.model.from_digits(self.to_gf(a), shift)

    def val(self, a):
        if not a:
            return self.M
        return ((a & -a).bit_length() - 1) // self.step

    def add(self, a, b):
        if self.binary:
            return a ^ b
        x = a + b
        return x - ((x + self.off & self.hi) >> self.top) * self.p

    def sub(self, a, b):
        if self.binary:
            return a ^ b
        x = a + self.pv - b
        return x - ((x + self.off & self.hi) >> self.top) * self.p

    def mul(self, a, b):
        return self.product(a * b)

    def shift_down(self, a, k):
        return a >> self.step * k

    def shift_up(self, a, k):
        return a << self.step * k & self.full if k < self.M else 0

    def unit_inv(self, a):
        x = self.scalar(self.gf.inv(self.digit0(a)))
        if a < self.t:  # a constant, its own t^0 digit
            return x
        two = 2 % self.p
        prec = 1
        while prec < self.M:
            x = self.mul(x, self.sub(two, self.mul(a, x)))
            prec *= 2
        return x

    def trunc(self, a, k):
        return a & (1 << self.step * k) - 1

    def code(self, a, k):
        if k == 1:
            return self.digit0(a)
        return from_base(self.digits(a, min(k, self.M)), self.p)

    def from_code(self, code, k):
        if code < self.p:
            return code if k > 0 else 0
        return self.pack_digits(to_base(code, self.p, self.m * min(k, self.M)))

    def residue_coeff(self, r):
        return self.scalar(r)


def embed_digits(ext, a, base_ops, ops):
    """The image under t -> s^e of the vector a of `base_ops`, over the base
    of the extension `ext`, as a vector of `ops`, over ext.extension."""
    return ops.from_gf(ext.embed_poly(base_ops.to_gf(a))[:ops.M])


@lru_cache(maxsize=None)
def digit_ops(model, M):
    """The digit backend of O/pi^M over `model`: one per (model, M), built
    on first use.  A backend holds constants only, so no result of one
    computation is kept for the next."""
    if isinstance(model, PAdicModel):
        return PadDigitOps(model, M)
    return LauDigitOps(model, M)


# ---------------------------------------------------------------------------
# the shared triangular reduction
# ---------------------------------------------------------------------------

class PrecisionError(ArithmeticError):
    """`_triangularize_digits` got fewer digits than its guard asks for;
    `pivot_sum` is the pivot sum the pass read, None if a pivot vanished."""

    def __init__(self, message, pivot_sum=None):
        super().__init__(message)
        self.pivot_sum = pivot_sum


def _triangularize_digits(ops, cols, n):
    """Column reduction over O/pi^M.  cols: list of columns (lists of digit
    vectors, length n).  Returns (exps, lower) of the canonical primitive
    lower-triangular form; the global pi-shift applied is returned too.

    The N = M - minval digits left after the primitive scaling must exceed
    D' = a_0 + .. + a_{n-1}, the pivot sum the pass reads; PrecisionError
    otherwise, with D' as its `pivot_sum`, and also when a pivot vanishes
    modulo pi^M (`pivot_sum` None).

    Guard lemma: a pass with N > D' is exact, and D' = D.  Let G be the
    O-matrix that the scaled columns agree with modulo pi^N.  Every step
    is an O-column operation (a unit times a column, or a column minus an
    O-multiple of another) done modulo pi^N, so at the end
    G U = C + pi^N E with U in GL_n(O), E integral and C the returned
    digits read in O: lower triangular, pi^(a_r) on the diagonal, residues
    mod pi^(a_i) below it.  C^(-1) = adj(C) / pi^D', so for N > D' the
    matrix X = pi^N C^(-1) E is integral and 0 mod pi, I + X is in GL_n(O),
    and G O^n = C O^n: C is the canonical form.  A singular G never
    passes, since C (I + X) is nonsingular.

    Conversely, a pass with N > D, D = v(det G), finds every pivot and reads
    D' = D, so D+1 digits always pass the check.  After k pivots the k x k
    minors of the first k rows of G U and of C agree modulo pi^N; those of C
    vanish except one, pi^(a_0 + .. + a_{k-1}); and the least valuation
    delta_k of those minors is the same for G U and G, and at most D.  So
    a_0 + .. + a_{k-1} = delta_k, and a row without a pivot would leave every
    (k+1)-minor 0 modulo pi^N, against delta_{k+1} <= D < N.  If instead
    N <= D, a pass that finds its pivots reads D' >= N."""
    M = ops.M
    # primitive scaling: shift down by the minimal entry valuation
    minval = min(ops.val(v) for col in cols for v in col)
    if minval >= M:
        raise PrecisionError(f"all generators vanish modulo pi^{M}: a zero "
                             "matrix, or a guard precision below D+1")
    if minval:
        cols = [[ops.shift_down(v, minval) for v in col] for col in cols]
    remaining = list(cols)
    pivots = []
    exps = []
    for r in range(n):
        best = None
        bestval = None
        for idx, col in enumerate(remaining):
            v = ops.val(col[r])
            if bestval is None or v < bestval:
                best, bestval = idx, v
        if bestval is None or bestval >= M:
            raise PrecisionError(f"no pivot in row {r} modulo pi^{M}: "
                                 "singular generators, or a guard precision "
                                 "below D+1")
        piv = remaining.pop(best)
        a = bestval
        unit = ops.shift_down(piv[r], a)
        uinv = ops.unit_inv(unit)
        piv = [ops.mul(uinv, v) for v in piv]
        for col in remaining:
            v = ops.val(col[r])
            if v >= M:
                continue
            mu = ops.shift_down(col[r], a)
            for i in range(r, n):
                col[i] = ops.sub(col[i], ops.mul(mu, piv[i]))
        pivots.append(piv)
        exps.append(a)
    if M - minval <= sum(exps):
        raise PrecisionError(f"guard precision {M - minval} is below D+1 "
                             f"for determinant valuation D = {sum(exps)}",
                             sum(exps))
    # back-reduction: entry (row i, col c) for i > c reduced mod pi^{a_i};
    # the pivot entry is pi^{a_i}, so the step leaves the residue in col[i]
    for c in range(n):
        col = pivots[c]
        for i in range(c + 1, n):
            mu = ops.shift_down(col[i], exps[i])
            if ops.val(mu) < M:
                ref = pivots[i]
                for k in range(i, n):
                    col[k] = ops.sub(col[k], ops.mul(mu, ref[k]))
    lower = tuple(tuple(ops.code(pivots[c][i], exps[i]) for i in range(c + 1, n))
                  for c in range(n))
    return tuple(exps), lower, minval


def guard_precision(bound, lost=0):
    """The digit precision M = lost + bound + 1 that leaves bound + 1 exact
    digits to generators which lose `lost` digits: enough to read any
    valuation up to `bound`, and to reduce generators of a lattice of
    determinant valuation at most `bound`.  Scaled by pi^(-minval), those
    are exact modulo pi^N, N = bound + 1 - minval, and span a primitive
    lattice with D <= bound - n minval < N: the guard lemma of
    `_triangularize_digits` makes the pass exact."""
    return lost + bound + 1


# ---------------------------------------------------------------------------
# vertex classes
# ---------------------------------------------------------------------------

class VertexClass:
    """Canonical representative of a lattice homothety class."""

    __slots__ = ("model", "n", "exps", "lower", "_hash")

    def __init__(self, model, exps, lower):
        self.model = model
        self.n = len(exps)
        self.exps = exps      # primitive diagonal exponents, all >= 0
        self.lower = lower    # lower[c][i-c-1] = residue code of entry (row i, col c)
        self._hash = hash((model.key(), exps, lower))

    def __eq__(self, other):
        return (isinstance(other, VertexClass) and self.model is other.model
                and self.exps == other.exps and self.lower == other.lower)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"VertexClass(exps={self.exps}, lower={self.lower})"

    def sort_key(self):
        return (self.exps, self.lower)

    @property
    def dim(self):
        return self.n - 1

    def det_valuation(self):
        """Valuation of det of the primitive representative (= colength in O^n)."""
        return sum(self.exps)

    def label(self):
        """Residue of v(det) mod (d+1); invariant under homothety."""
        return self.det_valuation() % self.n

    @property
    def exponents(self):
        """Diagonal exponents of the exposed min-diag-0 canonical matrix."""
        m = min(self.exps)
        return tuple(a - m for a in self.exps)

    def is_diagonal(self):
        return all(code == 0 for col in self.lower for code in col)

    def diagonal_exponents(self):
        if not self.is_diagonal():
            return None
        return self.exponents

    # -- materializations --

    def primitive_matrix(self):
        """Lower-triangular FieldElement matrix whose columns generate the
        primitive representative; entry (i,c), i>c, is an O-residue."""
        model = self.model
        pi = model.uniformizer()
        n = self.n
        mat = [[model.zero() for _ in range(n)] for _ in range(n)]
        for c in range(n):
            mat[c][c] = pi ** self.exps[c]
            for i in range(c + 1, n):
                mat[i][c] = self._decode(self.lower[c][i - c - 1], self.exps[i])
        return mat

    def _decode(self, code, k):
        model = self.model
        return model.from_digits(to_base(code, model.residue_size, k))

    def serialize(self):
        """Row-major list of element strings of the canonical matrix: the
        transposed primitive matrix times pi^(-m), m = min_j a_j.  It is
        upper triangular with diagonal pi^(a_j - m), and entry (i, j), i < j,
        is the residue of code lower[i][j-i-1] modulo pi^(a_j), times
        pi^(-m); each string is written from those digits."""
        model, n, exps = self.model, self.n, self.exps
        q = model.residue_size
        m = min(exps)
        zero = model.elem_str(model.zero())
        out = []
        for i, codes in enumerate(self.lower):
            out += [zero] * i
            out.append(model.elem_str(model.from_digits((1,), exps[i] - m)))
            for code, k in zip(codes, exps[i + 1:]):
                out.append(model.elem_str(model.from_digits(
                    to_base(code, q, k), -m)) if code else zero)
        return out

    def digit_columns(self, ops):
        """Primitive columns in the digit backend (for the hot paths)."""
        n = self.n
        cols = []
        for c in range(n):
            col = [ops.zero()] * n
            col[c] = ops.shift_up(ops.residue_coeff(1), self.exps[c])
            for i in range(c + 1, n):
                col[i] = ops.from_code(self.lower[c][i - c - 1], self.exps[i])
            cols.append(col)
        return cols


def column_class(ops, cols):
    """(class, minval): the class of the O-span of the digit columns `cols`
    (consumed) over `ops`, and the pi-shift of its primitive scaling, from
    `_triangularize_digits` at the precision of `ops`."""
    exps, lower, minval = _triangularize_digits(ops, cols, len(cols[0]))
    return VertexClass(ops.model, exps, lower), minval


# The digit precision at which `action` starts its search.
_SEARCH_START = 4


def action(model, g):
    """The map [L] -> [g L] of an invertible matrix g (FieldElements or
    parseable strings); ValueError if g is singular.

    g is read once, with no field-level elimination: it is scaled by
    pi^(-m), m its minimal entry valuation, to a primitive O-matrix G, and
    the model bounds D_g = v(det G) by B without eliminating
    (`det_valuation_bound`; B >= 0, as G is primitive with no zero row).
    The class [G] comes from a search over the digit precision M that the
    guard of `_triangularize_digits` certifies, from M = `_SEARCH_START` to
    at most B + 1 (`guard_precision`).  A pass at M > D_g always meets the
    guard, and one that meets it is exact, so the search ends by B + 1 for
    an invertible g; a singular g fails every pass, and its failure at B + 1
    is the ValueError.  A failed pass retries at max(2M, D' + 1), D' >= M
    the pivot sum a failed guard reads (0 when a pivot vanished).

    [G] is the image of the standard class, and its pivot sum is D_g.  The
    image of a class with primitive matrix T is the class of the digit
    product G T, and v(det G T) = D_g + D(T) is its precision bound."""
    rows = [[x if isinstance(x, FieldElement) else model.element(x) for x in row]
            for row in g]
    if not all(any(row) for row in rows):
        raise ValueError("singular matrix")
    minval = min(x.valuation() for row in rows for x in row)
    if minval:
        scale = model.uniformizer() ** (-minval)
        rows = [[x * scale for x in row] for row in rows]
    top = guard_precision(model.det_valuation_bound(rows))
    M = min(_SEARCH_START, top)
    while True:
        ops = digit_ops(model, M)
        gcols = [[ops.from_field(x) for x in col] for col in zip(*rows)]
        try:
            image, _ = column_class(ops, [list(col) for col in gcols])
            break
        except PrecisionError as err:
            if M >= top:
                raise ValueError("singular matrix") from None
            M = min(top, max(2 * M, guard_precision(err.pivot_sum or 0)))
    D_g = image.det_valuation()
    by_precision = {M: gcols}

    def apply(v):
        if not v.det_valuation():
            return image
        M = guard_precision(D_g + v.det_valuation())
        ops = digit_ops(model, M)
        gcols = by_precision.get(M)
        if gcols is None:
            gcols = by_precision[M] = [[ops.from_field(x) for x in col]
                                       for col in zip(*rows)]
        return column_class(
            ops, _digit_product(ops, gcols, v.digit_columns(ops)))[0]

    return apply


def _digit_product(ops, gcols, tcols):
    """The digit columns of G T, G and T given by their digit columns,
    skipping the zero entries of both."""
    n = len(tcols)
    zero = ops.zero()
    cols = []
    for tcol in tcols:
        col = [zero] * n
        for t, gcol in zip(tcol, gcols):
            if t != zero:
                for i, x in enumerate(gcol):
                    if x != zero:
                        col[i] = ops.add(col[i], ops.mul(t, x))
        cols.append(col)
    return cols


def _scaled_inverse(ops, v):
    """The digit columns of Y = pi^D T^{-1}, T the primitive matrix of v and
    D = v(det T) < M, by forward substitution against the identity.

    T is lower triangular with diagonal pi^(a_i), so det T = pi^D and Y is
    the adjugate of T: integral and lower triangular, y_jj = pi^(D - a_j).
    Entry i > j of column j is (-sum_{j<=k<i} T_ik y_kj) / pi^(a_i), a shift
    down by a_i digits that fills the top a_i digits with zeros.  So y_ij is
    exact modulo pi^(M - a_(j+1) - .. - a_i), and Y modulo pi^(M - D)."""
    n = v.n
    tcols = v.digit_columns(ops)
    zero = ops.zero()
    top = ops.shift_up(ops.residue_coeff(1), v.det_valuation())
    ycols = []
    for j in range(n):
        y = [zero] * n
        y[j] = ops.shift_down(top, v.exps[j])
        for i in range(j + 1, n):
            acc = zero
            for k in range(j, i):
                t = tcols[k][i]
                if t != zero and y[k] != zero:
                    acc = ops.sub(acc, ops.mul(t, y[k]))
            y[i] = ops.shift_down(acc, v.exps[i])
        ycols.append(y)
    return ycols


def canonical_form(model, basis):
    """Canonical homothety-class representative of the lattice whose columns
    are `basis` (FieldElements or parseable strings); errors on singular.
    It is the image of the standard class under `action`: the class that
    its precision search certifies, with no second reduction."""
    return action(model, basis)(standard_vertex(model, len(basis)))


def vertex_from_diagonal(model, exps):
    """Class of the diagonal lattice <pi^{e_0} T_0, .., pi^{e_n} T_n>."""
    m = min(exps)
    prim = tuple(e - m for e in exps)
    n = len(exps)
    return VertexClass(model, prim, tuple((0,) * (n - c - 1) for c in range(n)))


def standard_vertex(model, n):
    return vertex_from_diagonal(model, (0,) * n)


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def dual(v):
    """Class of the dual lattice for the standard bilinear form sum a_j b_j.

    For T the primitive matrix and D = v(det T), the rows of
    Y = pi^D T^{-1} span pi^D L*, and `_scaled_inverse` gives them exact
    mod pi^(M - D): they lose D digits, and v(det pi^D L*) = (n-1)D."""
    n, D = v.n, v.det_valuation()
    ops = digit_ops(v.model, guard_precision((n - 1) * D, lost=D))
    ys = _scaled_inverse(ops, v)
    return column_class(ops, [list(row) for row in zip(*ys)])[0]


# ---------------------------------------------------------------------------
# residue subspace enumeration and neighbors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gaussian_binomial(n, w, q):
    """Number of w-codimensional subspaces of F_q^n."""
    if w < 0 or w > n:
        return 0
    num = 1
    den = 1
    for i in range(1, w + 1):
        num *= q ** (n - w + i) - 1
        den *= q ** i - 1
    if num % den:
        raise ArithmeticError("Gaussian binomial is not an integer")
    return num // den


@lru_cache(maxsize=None)
def _standard_neighbors(model, n, w):
    """The colength-w neighbors of the standard class, one per codim-w
    subspace W of F_q^n, ordered by the pivot set of W's reduced row-echelon
    basis (lexicographic), then by its free entries in counting order.  That
    basis and pi e_j for j off the pivots span the neighbor in canonical
    form: exponent 0 on a pivot, 1 elsewhere, a residue code per free entry."""
    q = model.residue_size
    out = []
    for pivots in combinations(range(n), n - w):
        exps = tuple(0 if c in pivots else 1 for c in range(n))
        free_pos = [(p, j) for p in pivots for j in range(p + 1, n)
                    if j not in pivots]
        for code in range(q ** len(free_pos)):
            lower = [[0] * (n - c - 1) for c in range(n)]
            for (p, j), val in zip(free_pos, to_base(code, q, len(free_pos))):
                lower[p][j - p - 1] = val
            out.append(VertexClass(model, exps, tuple(map(tuple, lower))))
    if len(out) != gaussian_binomial(n, w, q):
        raise ArithmeticError(
            "subspace count differs from the Gaussian binomial")
    return tuple(out)


@lru_cache(maxsize=None)
def _standard_neighbor_columns(model, n, w, M):
    """The digit columns at precision M of the colength-w standard
    neighbors, in `_standard_neighbors` order."""
    ops = digit_ops(model, M)
    return tuple(u.digit_columns(ops) for u in _standard_neighbors(model, n, w))


@lru_cache(maxsize=None)
def standard_neighbor_subspaces(model, n, w):
    """The residue subspace W = U / pi O^n of each colength-w standard
    neighbor U, in `_standard_neighbors` order, as its reduced row-echelon
    rows of residue-field ints: the exponent-0 columns of U's canonical form
    modulo pi (the residue codes at exponent 1 are residue-field elements,
    those at exponent 0 are 0)."""
    return tuple(
        tuple(tuple(1 if i == p else u.lower[p][i - p - 1] if i > p else 0
                    for i in range(n))
              for p in range(n) if u.exps[p] == 0)
        for u in _standard_neighbors(model, n, w))


def neighbors_by_colength(v, w, indices=None):
    """All classes [L'] with L > L' > pi L of colength w, in deterministic
    (subspace-enumeration) order.  Count is the Gaussian binomial C(d+1,w)_q.
    The primitive matrix T of v maps the standard neighbors [U] onto these,
    as the classes [T U] with v(det T U) = D(v) + w.  `indices`, increasing
    positions in that order, selects the neighbors [T U] that are computed."""
    n = v.n
    if not 1 <= w <= n - 1:
        raise ValueError(f"colength must be in 1..{n - 1}, got {w}")
    M = guard_precision(v.det_valuation() + w)
    ops = digit_ops(v.model, M)
    tcols = v.digit_columns(ops)
    ucols = _standard_neighbor_columns(v.model, n, w, M)
    if indices is None:
        indices = range(len(ucols))
    return [column_class(ops, _digit_product(ops, tcols, ucols[j]))[0]
            for j in indices]


def all_neighbors(v):
    """Sublattice neighbors of all colengths 1..d, deterministic order."""
    out = []
    for w in range(1, v.n):
        out.extend(neighbors_by_colength(v, w))
    return out


# ---------------------------------------------------------------------------
# questions about T^{-1}: projections and class pairs
# ---------------------------------------------------------------------------

def inverse_column_minima(v):
    """The column minima w_j = min_i v((T^{-1})_ij) of the inverse of the
    primitive matrix T of v.  Column j of Y = pi^D T^{-1}, D = v(det T),
    holds pi^(D - a_j) on the diagonal, so its minimum is at most D, and
    `_scaled_inverse` loses D digits."""
    D = v.det_valuation()
    ops = digit_ops(v.model, guard_precision(D, lost=D))
    return [min(map(ops.val, col)) - D for col in _scaled_inverse(ops, v)]


def _pair_product(x, y):
    """(ops, P, Dx + m): the digit product P = Y_x T_y = pi^Dx T_x^{-1} T_y,
    Dx = v(det T_x), and its minimal valuation, with no division.  Y_x
    loses Dx digits (`_scaled_inverse`); the digits of T_y are exact at any
    M (an exponent a >= M reads 0, which is pi^a mod pi^M).  m = min
    v(T_x^{-1} T_y) <= 0, or T_y = T_x (T_x^{-1} T_y) would lie in pi O^n,
    against the primitivity of L_y.  So Dx + 1 exact digits read Dx + m
    and the digit at Dx + m of each entry; D(y) takes no part."""
    Dx = x.det_valuation()
    ops = digit_ops(x.model, guard_precision(Dx, lost=Dx))
    prod = _digit_product(ops, _scaled_inverse(ops, x), y.digit_columns(ops))
    return ops, prod, min(ops.val(a) for col in prod for a in col)


def class_pair_min(x, y):
    """m = min over entries of v(T_x^{-1} T_y) for the primitive
    representatives, which is -c for pi^c L_y <= L_x the minimal
    containment shift (`_pair_product`)."""
    return _pair_product(x, y)[2] - x.det_valuation()


def class_pair_residue(x, y):
    """(m, A): m = `class_pair_min(x, y)` and A = pi^(-m) T_x^{-1} T_y mod
    pi as a tuple of rows of residue-field ints, read off the same digit
    product.  The columns of A span the image of pi^c L_y in L_x / pi L_x,
    in the coordinates of the columns of T_x."""
    ops, prod, low = _pair_product(x, y)
    rows = tuple(tuple(ops.code(ops.shift_down(col[i], low), 1) for col in prod)
                 for i in range(x.n))
    return low - x.det_valuation(), rows


def pair_index_normalized(x, y):
    """f(x,y) = [M:L] where M is x's lattice and L is y's scaled so that
    M >= L, pi M not >= L (the directed distance in one factor)."""
    return y.det_valuation() - x.det_valuation() - x.n * class_pair_min(x, y)


def skeleton_distance(x, y):
    """Undirected 1-skeleton distance between two classes in one factor:
    the largest elementary divisor of the normalized pair."""
    if x == y:
        return 0
    s = pair_index_normalized(x, y) + pair_index_normalized(y, x)
    if s % x.n:
        raise ArithmeticError("pair indices do not sum to a multiple of n")
    return s // x.n

