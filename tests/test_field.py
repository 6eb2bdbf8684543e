import random
from fractions import Fraction

import pytest

from btbuildings import field
from btbuildings.field import (
    INF, ExtensionDescriptor, LaurentModel, PAdicModel,
    embed, enumerate_residues, expand_over, tower_embed, valuation,
)
from btbuildings.gf import pdivmod, pgcd, ptrim
from btbuildings.verify import random_element


Q2 = PAdicModel.get(2)
Q3 = PAdicModel.get(3)
F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)
F4T = LaurentModel.get(4)


@pytest.mark.parametrize("model,zero_den,spaced,plain", [
    (Q2, "1/0", "1 / 2", Fraction(1, 2)),
    (F2T, "t/0", "t / (1 + t)", "t/(1+t)"),
])
def test_text_parse_contract(model, zero_den, spaced, plain):
    # element(str) and elem_parse share one contract on both models: spaces
    # are ignored and a zero denominator is a ValueError
    for parse in (model.element, model.elem_parse):
        with pytest.raises(ValueError, match="zero denominator"):
            parse(zero_den)
        assert parse(spaced) == model.element(plain)


def _monomial(c, a, k):
    """The text of c*w^a*t^k, each factor written only when it is not 1."""
    parts = [str(c)] if c != 1 else []
    parts += [] if a == 0 else ["w"] if a == 1 else [f"w^{a}"]
    parts += [] if k == 0 else ["t"] if k == 1 else [f"t^{k}"]
    return "*".join(parts) or "1"


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_monomial_sums_parse_to_their_value(q):
    """Seeded sums of c*w^a*t^k with a and k in [-3, 3] (a = 0 over a prime
    residue field, which has no w) parse to the value field arithmetic
    gives, and so do their quotients."""
    model = LaurentModel.get(q)
    gf = model.gf
    rng = random.Random(f"parse:{q}")
    t = model.uniformizer()
    w = model.element((gf.from_coeffs([0, 1]),))
    sums = []
    for _ in range(40):
        terms, value = [], model.zero()
        for _ in range(rng.randrange(1, 5)):
            c, k = rng.randrange(1, gf.p), rng.randint(-3, 3)
            a = rng.randint(-3, 3) if gf.m > 1 else 0
            terms.append(_monomial(c, a, k))
            value = value + model.element(c) * w ** a * t ** k
        text = "+".join(terms)
        assert model.elem_parse(text) == value, text
        sums.append((text, value))
    for (s1, v1), (s2, v2) in zip(sums, sums[1:]):
        if v2 != model.zero():
            assert model.elem_parse(f"({s1})/({s2})") == v1 / v2


def _reduce_by_gcd(model, num, den):
    """Reference: num/den divided by their monic polynomial gcd, with the
    denominator made monic."""
    gf = model.gf
    num, den = ptrim(num), ptrim(den)
    if not num:
        return (), (1,)
    g = pgcd(gf, num, den)
    num, den = pdivmod(gf, num, g)[0], pdivmod(gf, den, g)[0]
    lead_inv = gf.inv(den[-1])
    return (tuple(gf.mul(c, lead_inv) for c in num),
            tuple(gf.mul(c, lead_inv) for c in den))


@pytest.mark.parametrize("model", [
    F2T, F3T, F4T, ExtensionDescriptor(F2T, e=2).extension], ids=repr)
def test_a_monomial_denominator_reduces_without_a_gcd(model, monkeypatch):
    # gcd(num, c t^k) = t^min(k, ord num): the slice gives the raw pair of
    # the gcd path for every c != 0, k = 0..4 and ord num = 0..5 (and for
    # num = 0), with no pgcd call
    rng = random.Random(f"monomial-den:{model!r}")
    q = model.gf.q
    nums = [(), (0, 0, 0)] + [
        (0,) * (i % 6) + tuple(rng.randrange(q) for _ in range(4))
        + (rng.randrange(1, q),) for i in range(12)]
    cases = [(num, (0,) * k + (c,))
             for num in nums for k in range(5) for c in range(1, q)]
    want = [_reduce_by_gcd(model, num, den) for num, den in cases]

    def no_gcd(*args):
        raise AssertionError("pgcd called on a monomial denominator")
    monkeypatch.setattr(field, "pgcd", no_gcd)
    assert [model._reduce(num, den) for num, den in cases] == want


def test_negative_t_exponents_and_w_over_a_prime_field():
    t = F2T.uniformizer()
    assert F2T.elem_parse("t+t^-1") == (F2T.one() + t * t) / t
    assert valuation(F2T.elem_parse("t+t^-1")) == -1
    assert F2T.elem_parse("t^-1") == F2T.one() / t
    assert F2T.elem_parse("t^-1*t^2") == t
    assert F2T.elem_parse("1/t^-2") == t * t
    for model, text in [(F2T, "w+1"), (F3T, "2*w^2"), (F2T, "t/w")]:
        with pytest.raises(ValueError, match="no generator w"):
            model.elem_parse(text)
    w = F4T.elem_parse("w")
    assert F4T.elem_parse("w^-1") * w == F4T.one()
    with pytest.raises(ZeroDivisionError):
        F4T.gf.pow(0, -1)


def test_valuation_examples():
    assert valuation(Q2.element(12)) == 2
    x = F2T.element("t^2") / F2T.element("1+t")
    assert valuation(x) == 2
    assert valuation(Q3.element(1)) == 0
    assert valuation(F4T.element(1)) == 0
    assert valuation(Q2.element(0)) == INF
    assert valuation(Q2.uniformizer()) == 1
    assert valuation(F3T.uniformizer()) == 1


@pytest.mark.parametrize("model", [Q2, Q3, F2T, F3T, F4T])
def test_valuation_axioms_random(model):
    rng = random.Random(20240901)
    for _ in range(1000):
        x = random_element(model, rng)
        y = random_element(model, rng)
        vx, vy = valuation(x), valuation(y)
        assert valuation(x * y) == vx + vy
        s = x + y
        assert valuation(s) >= min(vx, vy)
        if vx != vy:
            assert valuation(s) == min(vx, vy)


def test_enumerate_residues_examples():
    r = enumerate_residues(Q2, 2)
    assert [x.raw for x in r] == [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
    r = enumerate_residues(F2T, 2)
    assert [str(x) for x in r] == ["0", "1", "t", "1+t"]
    assert len(enumerate_residues(Q3, 1)) == 3


@pytest.mark.parametrize("model,m", [(Q2, 2), (Q3, 2), (F2T, 3), (F3T, 2), (F4T, 1)])
def test_residues_pairwise_distinct(model, m):
    reps = enumerate_residues(model, m)
    assert len(reps) == model.residue_size ** m
    pi_m = model.uniformizer() ** m
    seen = set()
    for x in reps:
        assert valuation(x) >= 0
        key = tuple(model.to_digits(x, m))
        assert key not in seen
        seen.add(key)
    # exhaustive pairwise non-congruence mod pi^m when feasible
    if len(reps) <= 256:
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert valuation(reps[i] - reps[j]) < m


def test_embed_examples():
    ext = ExtensionDescriptor(F2T, e=2, f=1)
    s2 = embed(F2T.uniformizer(), ext)
    assert str(s2) == "s^2"
    assert valuation(s2) == 2

    ext_u = ExtensionDescriptor(F3T, e=1, f=2)
    y = embed(F3T.element("1+t"), ext_u)
    assert valuation(y) == 0
    assert str(y) == "1+s"

    ext2 = ExtensionDescriptor(F2T, e=2, f=2)
    x = F2T.element("t") / F2T.element("1+t")
    y = embed(x, ext2)
    # oracle: compute by direct substitution and check valuation doubling
    num = ext2.extension.element("s^2")
    den = ext2.extension.element("1+s^2")
    assert y == num / den
    assert valuation(y) == 2 * valuation(x)


def test_embed_rejects_padic():
    with pytest.raises(ValueError):
        ExtensionDescriptor(Q2, e=2, f=1)


@pytest.mark.parametrize("e,f", [(1, 2), (2, 1), (2, 2), (3, 2)])
def test_embed_hom_and_valuation_scaling(e, f):
    ext = ExtensionDescriptor(F2T, e=e, f=f)
    rng = random.Random(31337 + 10 * e + f)
    seen = set()
    for _ in range(60):
        x = random_element(F2T, rng)
        y = random_element(F2T, rng)
        ex, ey = embed(x, ext), embed(y, ext)
        assert embed(x + y, ext) == ex + ey
        assert embed(x * y, ext) == ex * ey
        assert valuation(ex) == (INF if valuation(x) == INF else e * valuation(x))
        seen.add(ex)
    assert len(seen) > 1


def test_expand_roundtrip():
    ext = ExtensionDescriptor(F2T, e=2, f=2)
    rng = random.Random(7)
    E = ext.extension
    basis_pows = [(a, b) for a in range(2) for b in range(2)]
    w_img = E.gf.from_coeffs([0, 1])
    for _ in range(40):
        y = random_element(E, rng)
        coords = ext.expand(y)
        acc = E.zero()
        for (a, b), c in zip(basis_pows, coords):
            term = embed(c, ext) * E.uniformizer() ** a
            if b:
                term = term * E.element((E.gf.pow(w_img, b),))
            acc = acc + term
        assert acc == y


def _reconstruct(ext, coords):
    """sum_i c_i s^a W^b over the coordinates c of `expand`, i = a*f + b."""
    E = ext.extension
    w_img = E.gf.from_coeffs([0, 1]) if E.gf.m > 1 else 1
    acc = E.zero()
    for i, c in enumerate(coords):
        a, b = divmod(i, ext.f)
        acc = acc + (embed(c, ext) * E.uniformizer() ** a
                     * E.element((E.gf.pow(w_img, b),)))
    return acc


@pytest.mark.parametrize("model,e,f", [
    (F2T, 1, 3), (F2T, 1, 4), (F2T, 2, 3), (F3T, 1, 3)])
def test_expand_reconstructs_for_residue_degree_three_and_four(model, e, f):
    """Descent is exact when the denominator lies over F_{q^f}, f >= 3, not
    over F_q: every 1/(a+s), a in F_{q^f}^x, and seeded elements."""
    ext = ExtensionDescriptor(model, e=e, f=f)
    E = ext.extension
    s = E.uniformizer()
    elements = [E.one() / (E.element((a,)) + s) for a in range(1, E.q)]
    rng = random.Random(31 + f)
    elements += [random_element(E, rng) for _ in range(25)]
    for y in elements:
        coords = ext.expand(y)
        assert len(coords) == e * f
        assert all(c.model is model for c in coords)
        assert _reconstruct(ext, coords) == y


def test_in_base_detects_base_elements():
    ext = ExtensionDescriptor(F2T, e=2, f=2)
    x = F2T.element("t") / F2T.element("1+t+t^2")
    y = embed(x, ext)
    back = ext.in_base(y)
    assert back == x
    assert ext.in_base(ext.extension.element("s")) is None


def test_expand_over_two_levels():
    ext1 = ExtensionDescriptor(F2T, e=2, f=1)
    K1 = ext1.extension
    ext2 = ExtensionDescriptor(K1, e=1, f=2)
    K2 = ext2.extension
    y = embed(embed(F2T.element("1+t"), ext1), ext2)
    coords = expand_over(y, F2T)
    assert len(coords) == 4
    nonzero = [c for c in coords if valuation(c) != INF]
    assert nonzero == [F2T.element("1+t")]


# -- two-level towers: F_2((t)) -e=2-> -f=2-> and F_3((t)) -f=2-> -e=2-> ------

def _towers():
    ram = ExtensionDescriptor(F2T, e=2, f=1)
    t1 = [F2T, ram.extension,
          ExtensionDescriptor(ram.extension, e=1, f=2).extension]
    unram = ExtensionDescriptor(F3T, e=1, f=2)
    t2 = [F3T, unram.extension,
          ExtensionDescriptor(unram.extension, e=2, f=1).extension]
    cubic = ExtensionDescriptor(F2T, e=1, f=3)
    t3 = [F2T, cubic.extension,
          ExtensionDescriptor(cubic.extension, e=2, f=1).extension]
    return [(t1, [1, 2, 2]), (t2, [1, 1, 2]), (t3, [1, 1, 2])]


@pytest.mark.parametrize("tower,ram", _towers())
def test_tower_levels_know_root_and_ramification(tower, ram):
    root = tower[0]
    assert root.ext is None
    for level, (model, e) in enumerate(zip(tower, ram)):
        assert model.root is root
        assert model.ramification == e
        if level:
            assert model.ext.base is tower[level - 1]
            assert model.ext.extension is model
            assert (model.ramification
                    == model.ext.base.ramification * model.ext.e)
    assert Q2.ext is None and Q2.root is Q2 and Q2.ramification == 1


@pytest.mark.parametrize("tower,ram", _towers())
def test_tower_expand_over_inverts_tower_embed(tower, ram):
    root, K = tower[0], tower[-1]
    rng = random.Random(4242 + root.q)
    degree = tower[1].ext.degree * tower[2].ext.degree
    for _ in range(15):
        x = random_element(root, rng)
        coords = expand_over(tower_embed(x, K), root)
        assert coords == [x] + [root.zero()] * (degree - 1)
        middle = tower_embed(x, tower[1])
        assert tower_embed(middle, K) == tower_embed(x, K)
        assert expand_over(middle, root)[0] == x
    with pytest.raises(ValueError):
        tower_embed(K.one(), root)


@pytest.mark.parametrize("tower,ram", _towers())
def test_tower_expand_over_is_linear_over_the_root(tower, ram):
    root, K = tower[0], tower[-1]
    rng = random.Random(777 + root.q)
    for _ in range(10):
        c = random_element(root, rng)
        y1, y2 = random_element(K, rng), random_element(K, rng)
        lhs = expand_over(tower_embed(c, K) * y1 + y2, root)
        rhs = [c * a + b for a, b in zip(expand_over(y1, root),
                                         expand_over(y2, root))]
        assert lhs == rhs


def test_expand_with_the_residue_extension_already_in_use():
    """F_4((t)) has the residue field of F_2((t)) -f=2-> but is a separate
    root model; a caller that holds it keeps a root model, and expansion
    stays exact."""
    F4 = LaurentModel.get(4)
    held = F4.element("w*t") / F4.element("1+t")
    ext = ExtensionDescriptor(F2T, e=2, f=2)
    E = ext.extension
    w_img = E.gf.from_coeffs([0, 1])
    rng = random.Random(5)
    for _ in range(20):
        y = random_element(E, rng)
        acc = E.zero()
        for i, c in enumerate(ext.expand(y)):
            a, b = divmod(i, ext.f)
            acc = acc + (embed(c, ext) * E.uniformizer() ** a
                         * E.element((E.gf.pow(w_img, b),)))
        assert acc == y
    assert F4.ext is None and F4.root is F4
    assert held == F4.element("w*t") / F4.element("1+t")
    with pytest.raises(ValueError):
        expand_over(held, F2T)


def test_equal_descriptors_share_the_extension_model():
    a = ExtensionDescriptor(F3T, e=2, f=2)
    b = ExtensionDescriptor(F3T, e=2, f=2)
    assert a.extension is b.extension
    assert b.extension.ext.e == 2 and b.extension.ext.f == 2
    assert ExtensionDescriptor(F3T, e=2, f=1).extension is not a.extension
    y = embed(F3T.element("1+t"), b)
    assert a.in_base(y) == F3T.element("1+t")


def test_parse_print_roundtrip():
    rng = random.Random(99)
    for model in (Q2, F2T, F3T, F4T):
        for _ in range(80):
            x = random_element(model, rng)
            assert model.elem_parse(str(x)) == x


def test_element_syntax_example():
    x = F4T.element("(1+w*t)/(t^2)")
    assert valuation(x) == -2
    assert str(x) == "(1+w*t)/(t^2)"
