import json
import random
from itertools import product

import pytest

from btbuildings.autdecomp import (
    AutWord, HomDecomposition, ProductGraph, decompose_hom,
    expected_aut_order, graph_automorphisms_bruteforce, label_action,
    normal_form)
from btbuildings.building import (
    BuildingDescriptor, PolyVertex, act, apartment_point_of_vertex,
    ball, basic_chamber, in_standard_apartment, involution_lambda, labelling_C,
    shift_generator, sigma_mu)
from btbuildings.cli import main
from btbuildings.errors import BudgetError, WindowError
from btbuildings.field import LaurentModel, PAdicModel
from btbuildings.linalg import identity, inverse, matmul
from btbuildings.verify import random_unimodular

Q2 = PAdicModel.get(2)
F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)


def _identity_map(sizes):
    return {u: u for u in ProductGraph(sizes).vertices()}


def test_decompose_identity():
    dec = decompose_hom(_identity_map((2, 3)), (2, 3), (2, 3))
    assert dec.mu == (0, 1)
    assert dec.gs == ((0, 1), (0, 1, 2))
    assert not dec.consts
    assert dec.is_automorphism()


def test_decompose_factor_swap():
    f = {u: (u[1], u[0]) for u in ProductGraph((2, 2)).vertices()}
    dec = decompose_hom(f, (2, 2), (2, 2))
    assert dec.mu == (1, 0)
    # brute force over the 8 automorphisms of K_2 x K_2 finds the swap
    auts = graph_automorphisms_bruteforce((2, 2))
    assert len(auts) == 8
    assert f in auts


def test_decompose_rejects_non_hom():
    f = _identity_map((2, 2))
    f[(1, 1)] = (0, 0)
    with pytest.raises(ValueError):
        decompose_hom(f, (2, 2), (2, 2))
    g = {u: (0, 0) for u in ProductGraph((2, 2)).vertices()}
    with pytest.raises(ValueError):
        decompose_hom(g, (2, 2), (2, 2))


def test_decompose_injective_non_surjective_hom():
    # embed K_2 x K_2 into K_3 x K_3 x K_2 with a constant third coordinate
    f = {u: (u[1] + 1, u[0], 1) for u in ProductGraph((2, 2)).vertices()}
    dec = decompose_hom(f, (2, 2), (3, 3, 2))
    assert dec.mu == (1, 0)
    assert dec.consts == {2: 1}
    assert not dec.is_automorphism()


def test_aut_order_small_products():
    assert len(graph_automorphisms_bruteforce((2, 3))) == 12 == expected_aut_order((2, 3))
    assert len(graph_automorphisms_bruteforce((2, 2))) == 8 == expected_aut_order((2, 2))
    assert len(graph_automorphisms_bruteforce((2, 2, 2))) == 48 == expected_aut_order((2, 2, 2))
    assert len(graph_automorphisms_bruteforce((4,))) == 24 == expected_aut_order((4,))


def test_aut_enumeration_past_its_cap_is_a_budget_overrun():
    # (2, 2) has 8 automorphisms
    with pytest.raises(BudgetError, match="exceeded cap 3"):
        graph_automorphisms_bruteforce((2, 2), cap=3)


def test_decompose_reconstruct_roundtrip_random():
    rng = random.Random(321)
    for _ in range(200):
        r = rng.randrange(1, 4)
        sizes = tuple(rng.randrange(2, 5) for _ in range(r))
        # random automorphism from (mu, p_i)
        order = sorted(range(r), key=lambda i: (sizes[i], rng.random()))
        mu = [None] * r
        buckets = {}
        for i in range(r):
            buckets.setdefault(sizes[i], []).append(i)
        for a, idxs in buckets.items():
            img = idxs[:]
            rng.shuffle(img)
            for i, j in zip(idxs, img):
                mu[i] = j
        ps = []
        for i in range(r):
            p = list(range(sizes[i]))
            rng.shuffle(p)
            ps.append(p)
        f = {}
        for u in ProductGraph(sizes).vertices():
            out = [None] * r
            for i in range(r):
                out[mu[i]] = ps[mu[i]][u[i]]
            # build as f(u)_j = p_j(u_{mu^{-1}(j)}): use dec-apply convention
            f[u] = tuple(out)
        dec = decompose_hom(f, sizes, sizes)
        assert dec.is_automorphism()
        for u in ProductGraph(sizes).vertices():
            assert dec.apply(u) == f[u]


# -- label actions on balls --------------------------------------------------

B2 = BuildingDescriptor([(Q2, 2)])
B11 = BuildingDescriptor([(Q2, 1), (Q2, 1)])


def _ball(descriptor, radius=2):
    return ball(descriptor, descriptor.origin(), radius, budget=5000)


def test_label_action_identity():
    b = _ball(B2)
    ident = [[Q2.one() if i == j else Q2.zero() for j in range(3)] for i in range(3)]
    word = AutWord(B2, [{"kind": "group", "matrices": [ident]}])
    mu, gs, classification = label_action(word, b)
    assert mu == (0,)
    assert classification == [("rotation", 0)]


def test_label_action_lambda_reflection():
    b = _ball(B2)
    word = AutWord(B2, [{"kind": "lambda", "mask": [1]}])
    mu, gs, classification = label_action(word, b)
    assert classification[0][0] == "reflection"
    assert classification[0][1] == 0


def test_label_action_shift_rotation():
    b = _ball(B11)
    word = AutWord(B11, [{"kind": "shift", "factor": 1, "power": 1}])
    mu, gs, classification = label_action(word, b)
    assert mu == (0, 1)
    assert classification[0] == ("rotation", 0)
    assert classification[1] == ("rotation", 1)


def test_label_action_stable_under_group_precomposition():
    rng = random.Random(55)
    b = _ball(B2)
    base = AutWord(B2, [{"kind": "lambda", "mask": [1]}])
    _, _, cls0 = label_action(base, b)
    for _ in range(5):
        g = random_unimodular(Q2, 3, rng, steps=3)
        word = AutWord(B2, [{"kind": "group", "matrices": [g]},
                            {"kind": "lambda", "mask": [1]}])
        _, _, cls = label_action(word, b)
        assert [k for k, _ in cls] == [k for k, _ in cls0]


def test_label_action_window_errors():
    b = ball(B2, B2.origin(), 1)
    pi = Q2.uniformizer()
    far = [[pi ** 3 if i == j and i > 0 else (Q2.one() if i == j else Q2.zero())
            for j in range(3)] for i in range(3)]
    word = AutWord(B2, [{"kind": "group", "matrices": [far]}])
    with pytest.raises(WindowError):
        label_action(word, b)


# -- normal form --------------------------------------------------------------

def test_normal_form_sigma_mu_word():
    b = _ball(B11)
    word = AutWord(B11, [{"kind": "exchange", "mu": [1, 0]}])
    g, r, mu, report = normal_form(word, b)
    assert report["passed"]
    assert r == [0, 0]
    assert mu == [1, 0]


def test_normal_form_lambda_times_monomial():
    rng = random.Random(77)
    b = _ball(B2)
    pi = Q2.uniformizer()
    # random monomial matrix: permutation x pi powers
    perm = [1, 2, 0]
    mono = [[pi ** rng.randrange(0, 2) if perm[j] == i else Q2.zero()
             for j in range(3)] for i in range(3)]
    word = AutWord(B2, [{"kind": "lambda", "mask": [1]},
                        {"kind": "group", "matrices": [mono]}])
    g, r, mu, report = normal_form(word, b)
    assert r == [1]
    assert report["passed"]
    assert mu == [0]


def test_normal_form_shift_word():
    b = _ball(B11)
    word = AutWord(B11, [{"kind": "shift", "factor": 0, "power": 2}])
    g, r, mu, report = normal_form(word, b)
    assert report["passed"]
    assert r == [0, 0]
    assert mu == [0, 1]
    # phi' is the identity on the apartment window: check via composition
    final = AutWord(B11, word.gens + [{"kind": "group", "matrices": g}])
    for v in b.vertices:
        if in_standard_apartment(v):
            assert final.apply(v) == v


def test_normal_form_rejects_apartment_movers():
    b = _ball(B2)
    g = [[Q2.one(), Q2.one(), Q2.zero()],
         [Q2.zero(), Q2.one(), Q2.zero()],
         [Q2.zero(), Q2.zero(), Q2.one()]]
    word = AutWord(B2, [{"kind": "group", "matrices": [g]}])
    with pytest.raises(WindowError):
        normal_form(word, b)


def test_autword_json_roundtrip():
    word = AutWord(B11, [
        {"kind": "group", "matrices": [None,
                                       [[Q2.one(), Q2.zero()], [Q2.zero(), Q2.element(2)]]]},
        {"kind": "lambda", "mask": [1, 0]},
        {"kind": "exchange", "mu": [1, 0]},
        {"kind": "shift", "factor": 0, "power": -1},
    ])
    word2 = AutWord.from_json_obj(B11, json.loads(
        '[{"kind": "group", "matrices": [null, ["1", "0", "0", "2"]]},'
        ' {"kind": "lambda", "mask": [1, 0]},'
        ' {"kind": "exchange", "mu": [1, 0]},'
        ' {"kind": "shift", "factor": 0, "power": -1}]'))
    assert word2.gens == word.gens
    for x in _ball(B11).vertices:
        assert word.apply(x) == word2.apply(x)


# -- words against a dispatching reference ------------------------------------

def _apply_by_dispatch(word, x):
    """Reference for AutWord.apply: dispatch on each generator's kind per
    vertex, and raise the shift generator to the full power."""
    r = word.descriptor.r
    for g in word.gens:
        kind = g["kind"]
        if kind == "group":
            x = act(g["matrices"], x)
        elif kind == "lambda":
            x = involution_lambda(x, g["mask"])
        elif kind == "exchange":
            x = PolyVertex(tuple(x.components[g["mu"][i]] for i in range(r)))
        else:
            i, power = g["factor"], g["power"]
            model, d = word.descriptor.factors[i]
            mat = _matrix_power(model, shift_generator(model, d + 1), power)
            x = act([mat if j == i else None for j in range(r)], x)
    return x


def _matrix_power(model, mat, k):
    """mat^k as a k-fold product (of the inverse when k < 0)."""
    if k < 0:
        mat, k = inverse(model, mat), -k
    out = identity(model, len(mat))
    for _ in range(k):
        out = matmul(model, out, mat)
    return out


def _random_generator(descriptor, kind, rng):
    r = descriptor.r
    if kind == "group":
        mats = []
        for model, d in descriptor.factors:
            pick = rng.randrange(3)
            if pick == 0:
                mats.append(None)
            elif pick == 1:
                mats.append(random_unimodular(model, d + 1, rng, steps=2))
            else:
                pi = model.uniformizer()
                mats.append([[pi ** rng.randrange(2) if i == j else model.zero()
                              for j in range(d + 1)] for i in range(d + 1)])
        return {"kind": "group", "matrices": mats}
    if kind == "lambda":
        return {"kind": "lambda", "mask": [rng.randrange(2) for _ in range(r)]}
    if kind == "exchange":
        # permute factors within each class of equal dimension and field
        mu = list(range(r))
        classes = {}
        for i, (model, d) in enumerate(descriptor.factors):
            classes.setdefault((id(model), d), []).append(i)
        for idxs in classes.values():
            img = idxs[:]
            rng.shuffle(img)
            for i, j in zip(idxs, img):
                mu[i] = j
        return {"kind": "exchange", "mu": mu}
    return {"kind": "shift", "factor": rng.randrange(r),
            "power": rng.randrange(-7, 8)}


_KINDS = ("group", "lambda", "exchange", "shift")


@pytest.mark.parametrize("descriptor,count", [
    (B2, 16), (B11, 24), (BuildingDescriptor([(Q2, 2), (F2T, 1)]), 12)],
    ids=["B2", "B11", "B21"])
def test_apply_matches_the_dispatching_reference(descriptor, count):
    rng = random.Random(f"words:{descriptor.dims}")
    window = _ball(descriptor).vertices
    for _ in range(count):
        kinds = list(_KINDS) + [rng.choice(_KINDS)]
        rng.shuffle(kinds)
        word = AutWord(descriptor, [_random_generator(descriptor, kind, rng)
                                    for kind in kinds])
        for x in window:
            assert word.apply(x) == _apply_by_dispatch(word, x)


def test_label_action_maps_each_factor_class_once():
    """On the Q_2 x Q_2, d = (2, 2), radius-2 window, the label action of a
    seeded word maps each class of each output factor at most once: every
    class map of the composed word sees each of its inputs once."""
    B22 = BuildingDescriptor([(Q2, 2), (Q2, 2)])
    b = _ball(B22)
    rng = random.Random("label-action:22")
    gens = [{"kind": "exchange", "mu": [1, 0]},
            {"kind": "group", "matrices": [
                random_unimodular(Q2, 3, rng, steps=3) for _ in range(2)]},
            _random_generator(B22, "lambda", rng)]
    want = label_action(AutWord(B22, gens), b)
    word = AutWord(B22, gens)
    seen = []

    def spy(i, k, f):
        def mapped(c):
            seen.append((i, k, c))
            return f(c)
        return mapped

    word.maps = tuple(tuple(spy(i, k, f) for k, f in enumerate(fs))
                      for i, fs in enumerate(word.maps))
    assert all(word.maps)
    assert label_action(word, b) == want
    assert len(seen) == len(set(seen))
    # the first map of output factor i sees every class of its input factor
    for i, j in enumerate(word.source):
        assert ({c for i2, k, c in seen if i2 == i and k == 0}
                == set(b.factor_balls[j].vertices))


@pytest.mark.parametrize("model", [Q2, F3T], ids=["Q2", "F3T"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_shift_generator_to_the_n_is_pi(model, n):
    pi_id = [[model.uniformizer() * x for x in row]
             for row in identity(model, n)]
    assert _matrix_power(model, shift_generator(model, n), n) == pi_id


@pytest.mark.parametrize("gen", [
    {"kind": "lambda", "mask": [True, False]},
    {"kind": "exchange", "mu": [True, False]},
    {"kind": "shift", "factor": True, "power": 1},
    {"kind": "shift", "factor": 0, "power": False},
])
def test_a_boolean_is_not_an_integer(gen):
    with pytest.raises(ValueError, match="must be a list of integers"):
        AutWord(B11, [gen])


@pytest.mark.parametrize("d,residue", [("1", 0), ("2", 1)])
def test_a_shift_power_acts_mod_d_plus_1(d, residue, capsys):
    # 10^6 is 0 mod 2 and 1 mod 3; the full power would take hours
    outs = []
    for power in (10 ** 6, residue):
        word = json.dumps([{"kind": "shift", "factor": 0, "power": power}])
        code = main(["--d", d, "normal-form", "--word", word])
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_an_exchange_of_different_fields_fails_when_built():
    with pytest.raises(ValueError, match="between different fields"):
        AutWord(BuildingDescriptor([(Q2, 1), (F2T, 1)]),
                [{"kind": "exchange", "mu": [1, 0]}])
