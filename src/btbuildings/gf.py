"""Finite fields F_{p^m} with int-encoded elements.

An element of F_{p^m} = F_p[w]/(g) is stored as an integer in [0, p^m):
its base-p digits are the coefficients of 1, w, .., w^{m-1}.  The modulus
g is the lexicographically smallest monic irreducible of degree m over
F_p, coefficients compared low-degree-first, so the encoding (and hence
every enumeration order downstream) is deterministic.
"""

from functools import lru_cache

_TABLE_CAP = 256  # build full mul/inv tables up to this field size


def is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


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


# -- polynomial helpers over F_p; polys are tuples (c_0, c_1, ..) trimmed --

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, g, p):
    # g monic
    a = list(a)
    dg = len(g) - 1
    while len(a) > dg:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dg
            for i in range(dg):
                a[shift + i] = (a[shift + i] - lead * g[i]) % p
        a.pop()
    return _ptrim(a)


def _is_irreducible(g, p):
    """Trial division by all monic polynomials of degree <= deg(g)/2."""
    dg = len(g) - 1
    if dg < 1:
        return False
    for dd in range(1, dg // 2 + 1):
        for code in range(p ** dd):
            c, divisor = code, []
            for _ in range(dd):
                c, r = divmod(c, p)
                divisor.append(r)
            divisor.append(1)
            if not _pmod(g, tuple(divisor), p):
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p, m):
    """Monic irreducible of degree m over F_p, minimal in the low-degree-first
    lexicographic order on (c_0, .., c_{m-1})."""
    if m == 1:
        return (0, 1)  # x itself
    for code in range(p ** m):
        digits = []
        c = code
        for _ in range(m):
            c, r = divmod(c, p)
            digits.append(r)
        # low-degree-first lex order: c_0 is the most significant comparison key
        g = tuple(reversed(digits)) + (1,)
        if _is_irreducible(g, p):
            return g
    raise AssertionError("no irreducible found")  # cannot happen


class GF:
    """Arithmetic in F_q, q = p^m.  Instances are cached; use GF.get(q)."""

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
        self._mul_table = None
        self._inv_table = None
        if m > 1 and q <= _TABLE_CAP:
            self._build_tables()

    def __repr__(self):
        return f"GF({self.q})"

    # -- encoding helpers --

    def to_coeffs(self, a):
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def from_coeffs(self, c):
        a = 0
        for d in reversed(c[: self.m]):
            a = a * self.p + d
        return a

    def _poly_of(self, a):
        return _ptrim(self.to_coeffs(a))

    def _build_tables(self):
        q = self.q
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = self._poly_of(a)
            for b in range(a, q):
                c = self.from_coeffs(list(_pmod(_pmul(pa, self._poly_of(b), self.p),
                                                self.modulus, self.p)) + [0] * self.m)
                mul[a][b] = c
                mul[b][a] = c
        self._mul_table = mul
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv

    # -- arithmetic --

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        c = _pmod(_pmul(self._poly_of(a), self._poly_of(b), self.p),
                  self.modulus, self.p)
        return self.from_coeffs(list(c) + [0] * self.m)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        if self.m == 1:
            return pow(a, -1, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a, n):
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

    # -- printing / parsing in the generator symbol "w" --

    def elem_str(self, a):
        if self.m == 1:
            return str(a)
        terms = []
        for i, c in enumerate(self.to_coeffs(a)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}w" if i == 1 else f"{head}w^{i}")
        return "+".join(terms) if terms else "0"

    def elem_parse(self, s):
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty GF element")
        acc = 0
        for term in s.split("+"):
            if not term:
                raise ValueError(f"bad GF element: {s!r}")
            if "w" not in term:
                acc = self.add(acc, int(term) % self.p if self.m > 1 else int(term) % self.p)
                continue
            head, _, tail = term.partition("w")
            coef = int(head.rstrip("*")) if head.rstrip("*") else 1
            exp = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
            if exp is None:
                raise ValueError(f"bad GF element term: {term!r}")
            acc = self.add(acc, self.mul(coef % self.p, self.pow(self.from_coeffs([0, 1]), exp)))
        return acc
