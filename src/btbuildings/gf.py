"""Finite fields F_{p^m} with int-encoded elements.

An element of F_{p^m} = F_p[w]/(g) is stored as an integer in [0, p^m):
its base-p digits are the coefficients of 1, w, .., w^{m-1}.  The modulus
g is the lexicographically smallest monic irreducible of degree m over
F_p, coefficients compared low-degree-first, so the encoding (and hence
every enumeration order downstream) is deterministic.

Every field, prime or not, has one access path: add, sub and mul read a
table t[a][b], neg and inv a table t[a].  The tables are filled from one
scalar definition of each operation: addition coefficient-wise mod p,
multiplication as a polynomial product mod g on plain ints, negation as
multiplication by p - 1 = -1, and the inverse by pow.  Up to _TABLE_CAP
elements the tables are lists built with the field; above it a table
fills an entry on its first lookup and keeps it, so it holds one entry per
distinct pair looked up, and all q x q only if every pair is.

This module also owns the encodings built on F_q: the base-b digit codec
(`to_base`/`from_base`, low digit first) behind GF elements, pi-adic digit
vectors and residue codes; the polynomial toolkit over a GF (tuples
(c_0, c_1, ..) of GF ints, trimmed); and the truncated power-series
division `series_div`.  The digit backend `lattice.LauDigitOps` packs its
own t-adic digits and inverts units by Newton's iteration, so `series_div`
serves only as the tests' oracle of that backend.
"""

import math
from functools import lru_cache

INF = math.inf

_TABLE_CAP = 256  # list tables up to this field size; self-filling dicts above


def prime_power(q):
    """Split q into (p, m) with q = p^m, p prime; raises if q is not one."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, m
        p += 1
    return q, 1  # q itself prime


# -- the digit codec: ints <-> base-b digit lists, low digit first --

def to_base(code, base, k):
    """The k lowest base-b digits of code, low digit first."""
    out = []
    for _ in range(k):
        code, r = divmod(code, base)
        out.append(r)
    return out


def from_base(digits, base):
    """Inverse of to_base: the int whose base-b digits (low first) are given."""
    acc = 0
    for d in reversed(digits):
        acc = acc * base + d
    return acc


# -- polynomials over a GF: tuples (c_0, c_1, ..) of GF ints, trimmed --

def ptrim(c):
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def padd(gf, a, b):
    n = max(len(a), len(b))
    return ptrim([gf.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                  for i in range(n)])


def pneg(gf, a):
    return tuple(gf.neg(c) for c in a)


def pmul(gf, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = gf.add(out[i + j], gf.mul(ai, bj))
    return ptrim(out)


def pdivmod(gf, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = gf.inv(b[-1])
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = gf.mul(a[-1], binv)
        k = len(a) - len(b)
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                a[k + i] = gf.sub(a[k + i], gf.mul(c, bi))
        a.pop()
    return ptrim(q), ptrim(a)


def pgcd(gf, a, b):
    while b:
        a, b = b, pdivmod(gf, a, b)[1]
    if a:
        lead_inv = gf.inv(a[-1])
        a = tuple(gf.mul(c, lead_inv) for c in a)  # monic
    return a


def pord(a):
    """Index of the first nonzero coefficient; INF for the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i
    return INF


def series_div(gf, num, den, n):
    """The first n coefficients of the power series num/den; den[0] != 0."""
    inv0 = gf.inv(den[0])
    out = []
    for i in range(n):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            if den[j] and out[i - j]:
                acc = gf.sub(acc, gf.mul(den[j], out[i - j]))
        out.append(gf.mul(acc, inv0) if acc else 0)
    return out


# -- linear algebra over a GF: vectors are sequences of GF ints --

def row_space(gf, vecs):
    """An echelon basis (list of tuples) of the span of vecs over gf: every
    row has leading entry 1, the leads increase, and each row is zero at the
    leads of the rows it was reduced against (those that came before it)."""
    basis = []
    for v in vecs:
        v = list(v)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if v[lead]:
                c = gf.mul(v[lead], gf.inv(b[lead]))
                v = [gf.sub(x, gf.mul(c, y)) for x, y in zip(v, b)]
        if any(v):
            lead = next(i for i, x in enumerate(v) if x)
            inv = gf.inv(v[lead])
            basis.append(tuple(gf.mul(inv, x) for x in v))
            basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return basis


def rref(gf, vecs):
    """The reduced row-echelon basis (tuple of tuples) of the span of vecs,
    which depends on the span alone.  `row_space` of an echelon basis taken
    in decreasing lead order reduces each row against every row of larger
    lead, and an echelon row is already zero at the smaller leads."""
    return tuple(row_space(gf, row_space(gf, vecs)[::-1]))


def _is_irreducible(g, p):
    """Trial division by all monic polynomials of degree <= deg(g)/2."""
    dg = len(g) - 1
    if dg < 1:
        return False
    fp = GF.get(p)
    for dd in range(1, dg // 2 + 1):
        for code in range(p ** dd):
            if not pdivmod(fp, g, tuple(to_base(code, p, dd)) + (1,))[1]:
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p, m):
    """Monic irreducible of degree m over F_p, minimal in the low-degree-first
    lexicographic order on (c_0, .., c_{m-1}).  For m > 1, x divides every
    candidate with c_0 = 0, so the search starts at c_0 = 1."""
    if m == 1:
        return (0, 1)  # x itself
    for code in range(p ** (m - 1), p ** m):
        # low-degree-first lex order: c_0 is the most significant comparison key
        g = tuple(reversed(to_base(code, p, m))) + (1,)
        if _is_irreducible(g, p):
            return g
    raise ArithmeticError(f"no monic irreducible of degree {m} over F_{p}")


class _Filled(dict):
    """A table that fills itself: the entry for key k is fill(*args, k),
    computed on its first lookup and kept, so it holds one entry per
    distinct key looked up."""

    __slots__ = ("fill", "args")

    def __init__(self, fill, *args):
        self.fill, self.args = fill, args

    def __missing__(self, key):
        value = self[key] = self.fill(*self.args, key)
        return value


class GF:
    """Arithmetic in F_q, q = p^m.  Instances are cached; use GF.get(q).
    Each operation reads one table: add_table[a][b], sub_table[a][b],
    mul_table[a][b], neg_table[a], inv_table[a]."""

    _cache = {}

    @classmethod
    def get(cls, q):
        f = cls._cache.get(q)
        if f is None:
            f = cls._cache[q] = cls(q)
        return f

    def __init__(self, q):
        p, m = prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        self.modulus = smallest_irreducible(p, m)
        if q <= _TABLE_CAP:
            self._build_tables()
        else:  # row a of a table is _Filled(op, a)
            self.add_table = _Filled(_Filled, self._add)
            self.mul_table = _Filled(_Filled, self._poly_mul)
            self.neg_table = self.mul_table[p - 1]  # -a = (p-1)*a
            self.sub_table = _Filled(_Filled, lambda a, b:
                                     self.add_table[a][self.neg_table[b]])
            self.inv_table = _Filled(self._inv)

    def __repr__(self):
        return f"GF({self.q})"

    # -- encoding helpers --

    def to_coeffs(self, a):
        return to_base(a, self.p, self.m)

    def from_coeffs(self, c):
        return from_base(c[: self.m], self.p)

    # -- the scalar definitions the tables are filled from --

    def _add(self, a, b):
        """a + b, coefficient-wise mod p."""
        p, m = self.p, self.m
        return from_base([(x + y) % p for x, y in
                          zip(to_base(a, p, m), to_base(b, p, m))], p)

    def _poly_mul(self, a, b):
        """a*b as polynomials in w over F_p, reduced mod the monic modulus
        g, on plain ints mod p: w^m = -(g_0 + .. + g_{m-1} w^{m-1})."""
        p, m, g = self.p, self.m, self.modulus
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(to_base(a, p, m)):
            for j, y in enumerate(to_base(b, p, m)):
                prod[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            for i in range(m):
                prod[k - m + i] -= c * g[i]
        return from_base([c % p for c in prod[:m]], p)

    def _inv(self, a):
        """a^-1 = a^(e-1) / N(a), e = (q-1)/(p-1): the norm N(a) = a^e lies
        in F_p, where pow inverts it (for q = p this is pow(a, -1, p))."""
        r = self.pow(a, (self.q - 1) // (self.p - 1) - 1)
        return self._poly_mul(r, pow(self._poly_mul(r, a), -1, self.p))

    def _build_tables(self):
        """The list tables, from the powers of a primitive element g:
        a*b = g^(log a + log b), and with Zech's 1 + g^n (Lidl and
        Niederreiter, ch. 9) a + b = a * (1 + g^(log b - log a)).  A
        candidate g costs its order in products; each row is a slice of the
        powers read at the logs."""
        q = self.q
        order = q - 1
        for g in range(1, q):  # the powers of g != 0 return to 1
            powers = [1]
            while (nxt := self._poly_mul(powers[-1], g)) != 1:
                powers.append(nxt)
            if len(powers) == order:
                break
        else:
            raise ArithmeticError(f"GF({q}) has no primitive element")
        log = [0] * q
        for i, a in enumerate(powers):
            log[a] = i
        logs = log[1:]
        twice = powers + powers
        zech = [self._add(1, x) for x in powers] * 2  # 1 + g^n, n mod order
        self.mul_table = mul = [[0] * q]
        self.add_table = add = [list(range(q))]
        for a in range(1, q):
            la = log[a]
            row = [0, *map(twice[la:].__getitem__, logs)]
            mul.append(row)
            shifted = zech[order - la:]  # shifted[log b] = 1 + g^(log b - la)
            add.append([a, *map(row.__getitem__,
                                map(shifted.__getitem__, logs))])
        self.inv_table = [0] + [powers[-log[a] % order] for a in range(1, q)]
        self.neg_table = neg = mul[self.p - 1]  # -a = (p-1)*a
        self.sub_table = [list(map(row.__getitem__, neg)) for row in add]

    # -- arithmetic --

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.sub_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        return self.inv_table[a]

    def pow(self, a, n):
        """a^n; a negative n raises inv(a) to -n."""
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        b = a
        while n:
            if n & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            n >>= 1
        return out

    def scalar(self, n):
        """Image of the integer n under Z -> F_q."""
        return n % self.p

    # -- subfield embeddings --

    @lru_cache(maxsize=None)
    def embedding_into(self, other):
        """The fixed embedding F_{p^m} -> F_{p^{m'}} (m | m'), as a list
        indexed by elements.  The generator w maps to the smallest (by int
        encoding) root of this field's modulus in the target."""
        if other.p != self.p or other.m % self.m != 0:
            raise ValueError(f"{other!r} does not extend {self!r}")
        if other.q == self.q:
            return list(range(self.q))
        gen_img = None
        for c in range(other.q):
            acc = 0
            for coef in reversed(self.modulus):
                acc = other.add(other.mul(acc, c), coef % self.p)
            if acc == 0:
                gen_img = c
                break
        if gen_img is None:
            raise ArithmeticError(
                f"the modulus of {self!r} has no root in {other!r}")
        table = [0] * self.q
        for a in range(self.q):
            acc = 0
            img = 1
            for coef in self.to_coeffs(a):
                if coef:
                    acc = other.add(acc, other.mul(coef, img))
                img = other.mul(img, gen_img)
            table[a] = acc
        return table
