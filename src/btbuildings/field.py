"""Exact models of non-Archimedean local fields at desk scale.

Two global models stand in for the complete fields: Q with the p-adic
valuation, and F_q(t) with the t-adic valuation.  Every computation in
this package is exact; the one digit precision, that of the lattice
reduction, is managed in `lattice` and certified by its guard.

Laurent-model elements are reduced ratios of polynomials over F_q with
a monic denominator (polynomial arithmetic and series division from
`gf`); p-adic elements are Fractions.  Equal-characteristic
extensions F_{q^f}(s), s^e = t, are themselves Laurent models.  Every
model knows its place in its extension tower: `ext` is the
ExtensionDescriptor of the step below it (None on a root), `root` the
bottom of the tower and `ramification` the absolute ramification index
over the root.  `tower_embed` walks the tower upward and `expand_over`
downward, one `ext` at a time, exactly.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .gf import (INF, GF, from_base, padd, pdivmod, pgcd, pmul, pneg,
                 pord, prime_power, ptrim, series_div, to_base)
from .linalg import solve, transpose

_EXT_VARS = ("t", "s", "u", "v", "z")


# ---------------------------------------------------------------------------
# field models
# ---------------------------------------------------------------------------

class PAdicModel:
    """Q with the p-adic valuation, standing in for Q_p."""

    kind = "padic"
    ext = None
    ramification = 1
    _cache = {}

    @classmethod
    def get(cls, p):
        m = cls._cache.get(p)
        if m is None:
            m = cls._cache[p] = cls(p)
        return m

    def __init__(self, p):
        if prime_power(p) != (p, 1):  # raises for a non-prime-power
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.residue_size = p
        self.root = self

    def key(self):
        return ("padic", self.p)

    def __repr__(self):
        return f"PAdicModel({self.p})"

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.model is not self:
                raise ValueError("element of a different model")
            return value
        if isinstance(value, str):
            return self.elem_parse(value)
        return FieldElement(self, Fraction(value))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def uniformizer(self):
        return self.element(self.p)

    def val(self, raw):
        if raw == 0:
            return INF
        num, den = raw.numerator, raw.denominator
        v = 0
        while num % self.p == 0:
            num //= self.p
            v += 1
        while den % self.p == 0:
            den //= self.p
            v -= 1
        return v

    def det_valuation_bound(self, rows):
        """An upper bound B on v(det g) for the nonsingular square matrix g
        given by `rows`, none of them zero, without eliminating.

        Row i times the lcm d_i of its denominators is an integer row R_i,
        and v(det g) = v(det R) - sum_i v(d_i).  The integer det R is
        nonzero, so p^v(det R) <= |det R|, and Hadamard's bound gives
        |det R|^2 <= prod_i |R_i|^2 =: H.  B is the largest k with
        p^(2k) <= H, minus sum_i v(d_i)."""
        h = 1
        cleared = 0
        for row in rows:
            raws = [x.raw for x in row]
            d = lcm(*(r.denominator for r in raws))
            h *= sum((r.numerator * (d // r.denominator)) ** 2 for r in raws)
            cleared += self.val(d)
        k = 0
        while self.p ** (2 * k + 2) <= h:
            k += 1
        return k - cleared

    def residue(self, x, n):
        """x mod p^n as an int in [0, p^n) (requires v(x) >= 0)."""
        raw = x.raw
        if raw != 0 and self.val(raw) < 0:
            raise ValueError("negative valuation, not in O")
        mod = self.p ** n
        return raw.numerator * pow(raw.denominator, -1, mod) % mod

    def to_digits(self, x, n):
        """First n base-p digits of x (requires v(x) >= 0)."""
        return to_base(self.residue(x, n), self.p, n)

    def from_digits(self, digits, shift=0):
        acc = from_base(digits, self.p)
        return FieldElement(self, Fraction(acc) * Fraction(self.p) ** shift)

    def elem_str(self, x):
        return str(x.raw)

    def elem_parse(self, s):
        try:
            return FieldElement(self, Fraction(s.replace(" ", "")))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None

    def residue_gf(self):
        return GF.get(self.p)

    def lift_residue(self, r):
        return self.element(r)


class LaurentModel:
    """F_q(t) with the t-adic valuation, standing in for F_q((t))."""

    kind = "laurent"
    _cache = {}

    @classmethod
    def get(cls, q, var="t", ext=None):
        m = cls(q, var, ext)
        return cls._cache.setdefault(m.key(), m)

    def __init__(self, q, var="t", ext=None):
        self.gf = GF.get(q)
        self.q = q
        self.residue_size = q
        self.var = var
        self.ext = ext  # the step below this model, None on a root
        if ext is None:
            self.root, self.ramification = self, 1
            self._key = ("laurent", q, var, None)
        else:
            base = ext.base
            self.root = base.root
            self.ramification = base.ramification * ext.e
            self._key = ("laurent", q, var, base.key() + (ext.e, ext.f))

    def key(self):
        return self._key

    def __repr__(self):
        return f"LaurentModel(q={self.q}, var={self.var!r})"

    def element(self, num, den=(1,)):
        if isinstance(num, FieldElement):
            if num.model is not self:
                raise ValueError("element of a different model")
            return num
        if isinstance(num, str):
            return self.elem_parse(num)
        if isinstance(num, int):
            num = (self.gf.scalar(num),) if num % self.gf.p else ()
        num, den = self._reduce(tuple(num), tuple(den))
        return FieldElement(self, (num, den))

    def _reduce(self, num, den):
        gf = self.gf
        num, den = ptrim(num), ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return (), (1,)
        k = len(den) - 1
        if pord(den) == k:
            # den = c t^k: t^j, j = min(k, ord num), divides both, and a
            # common divisor of c t^k is a unit times a power of t, so
            # gcd(num, den) = t^j and dividing by it is a slice
            j = min(k, pord(num))
            num, den = num[j:], den[j:]
        else:
            g = pgcd(gf, num, den)
            if len(g) > 1 or g[0] != 1:
                num = pdivmod(gf, num, g)[0]
                den = pdivmod(gf, den, g)[0]
        lead_inv = gf.inv(den[-1])
        if lead_inv != 1:
            num = tuple(gf.mul(c, lead_inv) for c in num)
            den = tuple(gf.mul(c, lead_inv) for c in den)
        return num, den

    def zero(self):
        return FieldElement(self, ((), (1,)))

    def one(self):
        return FieldElement(self, ((1,), (1,)))

    def uniformizer(self):
        return FieldElement(self, ((0, 1), (1,)))

    def val(self, raw):
        num, den = raw
        if not num:
            return INF
        return pord(num) - pord(den)

    def det_valuation_bound(self, rows):
        """An upper bound B on v(det g) for the nonsingular square matrix g
        given by `rows`, none of them zero, without eliminating.

        Write g_ij = a_ij / b_ij and let d_i be the product of the distinct
        denominators of row i.  R_i = d_i g_i is a polynomial row and
        v(det g) = v(det R) - sum_i v(d_i).  The polynomial det R is
        nonzero, so v(det R) <= deg det R <= sum_i max_j deg R_ij, and
        deg R_ij = deg d_i + deg a_ij - deg b_ij.  So B is the sum over the
        rows of max_j (deg a_ij - deg b_ij) plus deg b - v(b) for each
        distinct denominator b of the row."""
        bound = 0
        for row in rows:
            raws = [x.raw for x in row if x.raw[0]]
            bound += max(len(a) - len(b) for a, b in raws)
            bound += sum(len(b) - 1 - pord(b) for b in {b for _a, b in raws})
        return bound

    def to_digits(self, x, n):
        """First n t-adic digits of x (requires v(x) >= 0); GF ints."""
        num, den = x.raw
        if not num:
            return [0] * n
        if pord(num) < pord(den):
            raise ValueError("negative valuation, not in O")
        k = pord(den)
        return series_div(self.gf, num[k:], den[k:], n)

    def from_digits(self, digits, shift=0):
        num = ptrim(digits)
        if shift >= 0:
            return self.element((0,) * shift + num)
        den = (0,) * (-shift) + (1,)
        return self.element(num, den)

    def elem_str(self, x):
        num, den = x.raw
        ns = self._poly_str(num)
        if den == (1,):
            return ns
        return f"({ns})/({self._poly_str(den)})"

    def _poly_str(self, pol):
        gf = self.gf
        if not pol:
            return "0"
        terms = []
        for k, c in enumerate(pol):
            if c == 0:
                continue
            for a, cw in enumerate(gf.to_coeffs(c)):
                if cw == 0:
                    continue
                parts = []
                if cw != 1 or (a == 0 and k == 0):
                    parts.append(str(cw))
                if a == 1:
                    parts.append("w")
                elif a > 1:
                    parts.append(f"w^{a}")
                if k == 1:
                    parts.append(self.var)
                elif k > 1:
                    parts.append(f"{self.var}^{k}")
                terms.append("*".join(parts) if parts else "1")
        return "+".join(terms) if terms else "0"

    def elem_parse(self, s):
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty element")
        num_s, slash, den_s = s.partition("/")
        num, a = self._poly_parse(num_s)
        den, b = self._poly_parse(den_s) if slash else ((1,), 0)
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        # num t^a / (den t^b) with a, b <= 0
        return self.element((0,) * -b + num, (0,) * -a + den)

    def _poly_parse(self, s):
        """A sum of monomials c*w^a*t^k, k and a any integers, optionally in
        one pair of parentheses, as (poly, low): the sum is poly * t^low,
        low <= 0 its most negative t-exponent (0 if there is none)."""
        gf = self.gf
        if s[:1] == "(" and s[-1:] == ")":
            s = s[1:-1]
        coeffs = {}
        for term in s.split("+"):
            cw, wexp, texp = 1, 0, 0
            for part in term.split("*"):
                name, caret, exp = part.partition("^")
                k = int(exp) if caret else 1
                if name.isdigit() and not caret:
                    cw = gf.mul(cw, gf.scalar(int(name)))
                elif name == "w":
                    if gf.m == 1:
                        raise ValueError(f"no generator w in the prime "
                                         f"field F_{gf.q}: {term!r}")
                    wexp += k
                elif name == self.var:
                    texp += k
                else:
                    raise ValueError(f"bad factor {part!r} in {term!r}")
            c = gf.mul(cw, gf.pow(gf.from_coeffs([0, 1]), wexp)) if wexp else cw
            coeffs[texp] = gf.add(coeffs.get(texp, 0), c)
        low = min(0, *coeffs)
        out = [0] * (max(coeffs) - low + 1)
        for k, c in coeffs.items():
            out[k - low] = c
        return ptrim(out), low

    def residue_gf(self):
        return self.gf

    def lift_residue(self, r):
        return self.element((r,)) if r else self.zero()


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element of a field model, stored in reduced canonical form."""

    __slots__ = ("model", "raw")

    def __init__(self, model, raw):
        self.model = model
        self.raw = raw

    def __repr__(self):
        return f"<{self.model.elem_str(self)}>"

    def __str__(self):
        return self.model.elem_str(self)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.model is other.model
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.model.key(), self.raw))

    def __bool__(self):
        return self.valuation() != INF

    def valuation(self):
        return self.model.val(self.raw)

    def __add__(self, other):
        m = self.model
        if isinstance(m, PAdicModel):
            return FieldElement(m, self.raw + other.raw)
        (a, b), (c, d) = self.raw, other.raw
        gf = m.gf
        return m.element(padd(gf, pmul(gf, a, d), pmul(gf, c, b)), pmul(gf, b, d))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        m = self.model
        if isinstance(m, PAdicModel):
            return FieldElement(m, -self.raw)
        (a, b) = self.raw
        return FieldElement(m, (pneg(m.gf, a), b))

    def __mul__(self, other):
        m = self.model
        if isinstance(m, PAdicModel):
            return FieldElement(m, self.raw * other.raw)
        (a, b), (c, d) = self.raw, other.raw
        gf = m.gf
        return m.element(pmul(gf, a, c), pmul(gf, b, d))

    def __truediv__(self, other):
        m = self.model
        if isinstance(m, PAdicModel):
            return FieldElement(m, self.raw / other.raw)
        (a, b), (c, d) = self.raw, other.raw
        if not c:
            raise ZeroDivisionError("division by zero")
        gf = m.gf
        return m.element(pmul(gf, a, d), pmul(gf, b, c))

    def __pow__(self, n):
        m = self.model
        out = m.one()
        b = self
        if n < 0:
            b = m.one() / b
            n = -n
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def sort_key(self):
        if isinstance(self.model, PAdicModel):
            return (0, self.raw.numerator, self.raw.denominator)
        return (1, self.raw)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def valuation(x):
    """Normalized discrete valuation; v(0) = +inf, v(uniformizer) = 1."""
    return x.valuation()


def enumerate_residues(model, m):
    """The q^m canonical representatives of O/pi^m O, in counting order:
    representative i has the base-q digits of i as its pi-digits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    q = model.residue_size
    return [model.from_digits(to_base(code, q, m)) for code in range(q ** m)]


class ExtensionDescriptor:
    """Equal-characteristic extension of a Laurent model: residue degree f,
    ramification index e, uniformizer s with s^e = t.  Descriptors with
    equal parameters share one extension model, whose `ext` is the first
    of them."""

    def __init__(self, base, e=1, f=1, var=None):
        if isinstance(base, PAdicModel):
            raise ValueError("extensions are unsupported in the p-adic model")
        if e < 1 or f < 1:
            raise ValueError("e and f must be >= 1")
        self.base = base
        self.e = e
        self.f = f
        if var is None:
            try:
                i = _EXT_VARS.index(base.var)
            except ValueError:
                i = 0
            var = _EXT_VARS[i + 1] if i + 1 < len(_EXT_VARS) else base.var + "'"
        self.extension = LaurentModel.get(base.q ** f, var=var, ext=self)
        self._coef_emb = base.gf.embedding_into(self.extension.gf)

    @property
    def degree(self):
        return self.e * self.f

    def __repr__(self):
        return f"ExtensionDescriptor({self.base!r}, e={self.e}, f={self.f})"

    def embed_poly(self, pol):
        """t-polynomial over F_q  ->  s-polynomial over F_{q^f}, t -> s^e."""
        if not pol:
            return ()
        out = [0] * ((len(pol) - 1) * self.e + 1)
        for k, c in enumerate(pol):
            if c:
                out[k * self.e] = self._coef_emb[c]
        return tuple(out)

    def embed(self, x):
        """Ring homomorphism scaling valuations by e."""
        if x.model is not self.base:
            raise ValueError("element not of the base model")
        num, den = x.raw
        return self.extension.element(self.embed_poly(num), self.embed_poly(den))

    # -- descent: exact coordinates of an extension element over the base --

    def expand(self, y):
        """Coordinates of y in the base-module basis {s^a W^b} (a < e, b < f),
        as a list of e*f base elements, indexed a*f + b.

        With y = num/den, the coordinates c solve the base-linear system
        sum_i c_i coords(beta_i den) = coords(num) over the basis beta_i =
        s^a W^b, i = a*f + b (`_coords`); its matrix is invertible because
        multiplication by den != 0 is."""
        if y.model is not self.extension:
            raise ValueError("element not of the extension model")
        num, den = y.raw
        gf = self.extension.gf
        cols = [self._coords((0,) * a + tuple(gf.mul(w, c) for c in den))
                for a in range(self.e) for w in self._w_powers()]
        return solve(self.base, transpose(cols), [self._coords(num)])[0]

    def in_base(self, y):
        """The base element equal to y, or None if y is not in the base."""
        coords = self.expand(y)
        for i, c in enumerate(coords):
            if i != 0 and c.valuation() != INF:
                return None
        return coords[0]

    def _coords(self, pol):
        """s-polynomial sum_k g_k s^k over F_{q^f} -> its e*f base
        coordinates: the F_q-coordinates of g_k sit at t-power k // e of
        slot (k mod e)*f + b, since s^k = s^(k mod e) t^(k // e)."""
        e, f = self.e, self.f
        table = self._descend_table()
        slots = [[0] * (len(pol) // e + 1) for _ in range(e * f)]
        for k, c in enumerate(pol):
            if c:
                tpow, a = divmod(k, e)
                for b, cb in enumerate(table[c]):
                    slots[a * f + b][tpow] = cb
        return [self.base.element(tuple(slot)) for slot in slots]

    @lru_cache(maxsize=None)
    def _w_powers(self):
        """W^0, .., W^(f-1) in F_{q^f}, W the generator of its coefficient
        codec (over a prime field f = 1, and W^0 = 1)."""
        gf_big = self.extension.gf
        W = gf_big.from_coeffs([0, 1])
        return tuple(gf_big.pow(W, b) for b in range(self.f))

    @lru_cache(maxsize=None)
    def _descend_table(self):
        """For each element c of F_{q^f}: its f coordinates over F_q in the
        basis {W^b}, as a tuple of f GF(q)-ints.  Built by brute force over
        all q^f coordinate combinations (desk scale: q^f <= 81)."""
        gf_big = self.extension.gf
        gf_small = self.base.gf
        emb = self._coef_emb
        basis = self._w_powers()
        stack = [((), 0)]
        for b in range(self.f):
            new = []
            for coords, acc in stack:
                for c in range(gf_small.q):
                    new.append((coords + (c,), gf_big.add(acc, gf_big.mul(emb[c], basis[b]))))
            stack = new
        table = {}
        for coords, acc in stack:
            table[acc] = coords
        if len(table) != gf_big.q:
            raise ArithmeticError("the basis {W^b} does not span F_{q^f}")
        return table


def embed(x, ext):
    """Embed a base-model element into the extension model of ext."""
    return ext.embed(x)


def tower_embed(x, target):
    """Embed x upward along the extension tower into the target model."""
    steps = []
    model = target
    while model is not x.model:
        if model.ext is None:
            raise ValueError(
                "no tower path from the element's model to the target")
        steps.append(model.ext)
        model = model.ext.base
    for ext in reversed(steps):
        x = ext.embed(x)
    return x


def expand_over(y, target_model):
    """Coordinates of y over target_model, descending the extension tower
    one level at a time.  Returns a list of target-model elements."""
    if y.model is target_model:
        return [y]
    ext = y.model.ext
    if ext is None:
        raise ValueError("no tower path to the target model")
    out = []
    for c in ext.expand(y):
        out.extend(expand_over(c, target_model))
    return out


def basis_valuations(K, k):
    """v_K of the basis {s^a W^b} of K over k, in the order of
    `expand_over`: per tower step (a, b) with index a*f + b, then the basis
    of the step below.  The basis is orthogonal for |.|, since every
    step's basis is."""
    if K is k:
        return [0]
    ext = K.ext
    if ext is None:
        raise ValueError("no tower path to the target model")
    lower = basis_valuations(ext.base, k)
    return [a + ext.e * v for a in range(ext.e) for _b in range(ext.f)
            for v in lower]
