"""The F_q layer against sympy's galoistools (test-only oracle): GF(q)
arithmetic tables, the self-filling tables above the table cap, the
choice of modulus, the polynomial toolkit, the digit codec and the
truncated series division."""

import random
from itertools import product

import pytest
from sympy import GF as SympyGF
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from btbuildings.gf import (
    _TABLE_CAP, GF, from_base, padd, pdivmod, pgcd, pmul, pneg, pord, ptrim,
    rref, series_div, smallest_irreducible, to_base,
)


def _high(low):
    """Low-degree-first coefficients -> galoistools' high-first list."""
    return gt.gf_strip(list(reversed(list(low))))


def _low(high):
    return ptrim(list(reversed(high)))


def _oracle_mul(F, a, b):
    prod = gt.gf_mul(_high(F.to_coeffs(a)), _high(F.to_coeffs(b)), F.p, ZZ)
    rem = gt.gf_rem(prod, _high(F.modulus), F.p, ZZ)
    return F.from_coeffs(list(_low(rem)))


def _oracle_inv(F, a):
    s, _t, h = gt.gf_gcdex(_high(F.to_coeffs(a)), _high(F.modulus), F.p, ZZ)
    assert h == [1]
    return F.from_coeffs(list(_low(s)))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_mul_and_inv_tables_match_sympy(q):
    F = GF.get(q)
    assert isinstance(F.mul_table, list) and isinstance(F.inv_table, list)
    assert gt.gf_irreducible_p(_high(F.modulus), F.p, ZZ)
    for a in range(q):
        for b in range(q):
            assert F.mul(a, b) == _oracle_mul(F, a, b)
        if a:
            assert F.inv(a) == _oracle_inv(F, a)


def test_largest_tables_match_polynomial_products():
    # the tables come from the powers of a primitive element; every entry
    # must equal the reduced polynomial product
    F = GF.get(256)
    assert isinstance(F.mul_table, list)
    rng = random.Random(256)
    for _ in range(3000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert F.mul(a, b) == F._poly_mul(a, b)
    for a in range(1, 256):
        assert F._poly_mul(a, F.inv(a)) == 1


def test_mul_fallback_above_the_table_cap_matches_sympy():
    F = GF.get(512)
    assert isinstance(F.mul_table, dict)
    assert gt.gf_irreducible_p(_high(F.modulus), F.p, ZZ)
    rng = random.Random(512)
    for _ in range(300):
        a, b = rng.randrange(512), rng.randrange(512)
        assert F.mul(a, b) == _oracle_mul(F, a, b)
    for a in [1, 2, 511] + [rng.randrange(1, 512) for _ in range(20)]:
        assert F.inv(a) == _oracle_inv(F, a)


def _oracle_pow(F, a, n):
    if n < 0:
        a, n = _oracle_inv(F, a), -n
    h = gt.gf_pow_mod(_high(F.to_coeffs(a)), n, _high(F.modulus), F.p, ZZ)
    return F.from_coeffs(_low(h))


def _entries(table):
    """The number of entries a q x q table holds."""
    return sum(map(len, table.values() if isinstance(table, dict) else table))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 25, 27, 256, 257, 512])
def test_arithmetic_matches_sympy(q):
    """add, sub, neg, mul, inv and pow against galoistools: every pair up
    to q = 27, seeded pairs above.  Above the table cap the tables fill on
    lookup and none of them ever holds all q x q entries."""
    F = GF.get(q)
    p = F.p
    rng = random.Random(f"gf:{q}")
    if q <= 27:
        pairs = list(product(range(q), repeat=2))
    else:
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    for a, b in pairs:
        ha, hb = _high(F.to_coeffs(a)), _high(F.to_coeffs(b))
        assert F.add(a, b) == F.from_coeffs(_low(gt.gf_add(ha, hb, p, ZZ)))
        assert F.sub(a, b) == F.from_coeffs(_low(gt.gf_sub(ha, hb, p, ZZ)))
        assert F.neg(a) == F.from_coeffs(_low(gt.gf_neg(ha, p, ZZ)))
        assert F.mul(a, b) == _oracle_mul(F, a, b)
        if a:
            assert F.inv(a) == _oracle_inv(F, a)
            n = rng.randrange(-5, 20)
            assert F.pow(a, n) == _oracle_pow(F, a, n)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    full = [_entries(t) == q * q
            for t in (F.add_table, F.sub_table, F.mul_table)]
    assert full == [q <= _TABLE_CAP] * 3


@pytest.mark.parametrize("q", [512, 1009])
def test_tables_above_the_cap_hold_the_pairs_looked_up(q):
    """Above the table cap a table holds one entry per distinct pair looked
    up, however often each is read."""
    F = GF(q)  # a fresh instance, not the shared GF.get(q)
    rng = random.Random(f"fill:{q}")
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
    for a, b in pairs + pairs[::2]:
        F.add(a, b)
        F.mul(a, b)
    assert _entries(F.add_table) == _entries(F.mul_table) == len(set(pairs))


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7)
                                 for m in range(2, 13) if p ** m <= 4096])
def test_smallest_irreducible_is_irreducible_and_least(p, m):
    g = smallest_irreducible(p, m)
    assert len(g) == m + 1 and g[-1] == 1
    # the first irreducible in lexicographic order on (c_0, .., c_{m-1}),
    # found by a search over every code, c_0 = 0 included, which the
    # package skips
    first = next(c + (1,) for c in product(range(p), repeat=m)
                 if gt.gf_irreducible_p(_high(c + (1,)), p, ZZ))
    assert g == first


@pytest.mark.parametrize("base,k", [(2, 5), (3, 3), (4, 3), (9, 2)])
def test_codec_round_trips(base, k):
    for code in range(base ** k):
        digits = to_base(code, base, k)
        assert len(digits) == k and all(0 <= x < base for x in digits)
        assert from_base(digits, base) == code
        assert sum(x * base ** i for i, x in enumerate(digits)) == code
    # k digits keep the residue mod base^k; trailing zero digits change nothing
    assert from_base(to_base(base ** k + 5, base, k), base) == 5
    assert from_base(to_base(5, base, k) + [0, 0], base) == 5
    assert to_base(6, 2, 4) == [0, 1, 1, 0]


def _random_poly(rng, q, length):
    return ptrim([rng.randrange(q) for _ in range(length)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_polynomial_toolkit_matches_sympy_over_prime_fields(p):
    F = GF.get(p)
    rng = random.Random(p)
    for _ in range(200):
        a = _random_poly(rng, p, rng.randrange(0, 7))
        b = _random_poly(rng, p, rng.randrange(1, 5)) or (1,)
        assert pmul(F, a, b) == _low(gt.gf_mul(_high(a), _high(b), p, ZZ))
        assert padd(F, a, b) == _low(gt.gf_add(_high(a), _high(b), p, ZZ))
        assert pneg(F, a) == _low(gt.gf_neg(_high(a), p, ZZ))
        quo, rem = gt.gf_div(_high(a), _high(b), p, ZZ)
        assert pdivmod(F, a, b) == (_low(quo), _low(rem))
        assert pgcd(F, a, b) == _low(gt.gf_gcd(_high(a), _high(b), p, ZZ))
    assert pord(()) == float("inf") and pord((0, 0, 3)) == 2


@pytest.mark.parametrize("q", [4, 9])
def test_pdivmod_reconstructs_over_prime_power_fields(q):
    F = GF.get(q)
    rng = random.Random(q)
    for _ in range(200):
        a = _random_poly(rng, q, rng.randrange(0, 7))
        b = _random_poly(rng, q, rng.randrange(1, 5)) or (1,)
        quo, rem = pdivmod(F, a, b)
        assert len(rem) < len(b)
        assert padd(F, pmul(F, quo, b), rem) == a


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_series_div_times_den_is_num_mod_t_n(q):
    F = GF.get(q)
    rng = random.Random(1000 + q)
    for _ in range(200):
        n = rng.randrange(1, 9)
        num = _random_poly(rng, q, rng.randrange(0, 7))
        den = (rng.randrange(1, q),) + tuple(rng.randrange(q)
                                             for _ in range(rng.randrange(0, 6)))
        s = series_div(F, num, den, n)
        assert len(s) == n
        prod = list(pmul(F, ptrim(s), den)) + [0] * n
        assert prod[:n] == list(num[:n]) + [0] * (n - len(num[:n]))


def test_rref_spans_the_input():
    """rref's rows span the span of the input, enumerated by brute force
    over every coefficient vector, and are independent: they give
    q^len(basis) distinct vectors.  This oracle needs no prime q.  Inputs
    are lists and iterators, of 0 to 3 vectors."""
    rng = random.Random(7)
    for q, n in [(2, 4), (3, 3), (4, 3)]:
        gf = GF.get(q)

        def span(vecs):
            out = set()
            for coeffs in product(range(q), repeat=len(vecs)):
                acc = [0] * n
                for c, v in zip(coeffs, vecs):
                    acc = [gf.add(x, gf.mul(c, y)) for x, y in zip(acc, v)]
                out.add(tuple(acc))
            return out

        for _ in range(40):
            vecs = [[rng.randrange(q) for _ in range(n)]
                    for _ in range(rng.randrange(0, 4))]
            basis = rref(gf, vecs)
            assert rref(gf, iter(vecs)) == basis
            assert span(basis) == span(vecs)
            assert len(span(basis)) == q ** len(basis)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rref_depends_on_the_span_alone(q):
    """rref is reduced (leading 1s, increasing leads, zero above and below
    every lead), equals sympy's rref over prime fields, and is unchanged by
    reordering and recombining the input vectors."""
    rng = random.Random(f"rref:{q}")
    gf = GF.get(q)
    for _ in range(60):
        n = rng.randrange(1, 6)
        vecs = [[rng.randrange(q) for _ in range(n)]
                for _ in range(rng.randrange(0, 5))]
        basis = rref(gf, vecs)
        leads = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert leads == sorted(set(leads))
        for b, k in zip(basis, leads):
            assert [a[k] for a in basis] == [int(a is b) for a in basis]
        mixed = [list(v) for v in vecs]
        rng.shuffle(mixed)
        for i in range(len(mixed)):
            for j in range(len(mixed)):
                if i != j:
                    c = rng.randrange(q)
                    mixed[i] = [gf.add(x, gf.mul(c, y))
                                for x, y in zip(mixed[i], mixed[j])]
        assert rref(gf, mixed) == basis  # elementary operations keep the span
        if gf.m == 1 and vecs:
            K = SympyGF(q)
            ref, _ = DomainMatrix([[K(x) for x in v] for v in vecs],
                                  (len(vecs), n), K).rref()
            rows = [tuple(int(x) % q for x in row) for row in ref.to_Matrix().tolist()]
            assert basis == tuple(r for r in rows if any(r))
