import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from btbuildings.building import ApartmentPoint, BuildingDescriptor, PolyVertex, involution_lambda, apartment_point_of_vertex
from btbuildings.drinfeld import (
    AbsValue, GaussSeminorm, Poly, RigidPoint, deform, diagonalize_norm,
    dual_coords, eval_abs, gauss_eval, membership_depth, omega_membership,
    tau_coordinates, tower_embed, unimodular_count,
    unimodular_representatives, val_root, verify_diagonal)
from btbuildings.errors import BudgetError
from btbuildings.field import (INF, ExtensionDescriptor, LaurentModel,
                               PAdicModel, valuation)
from btbuildings.lattice import vertex_from_diagonal
from btbuildings.linalg import matmul
from btbuildings.verify import random_o_element, random_unimodular

F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)

EXT_RAM = ExtensionDescriptor(F2T, e=2, f=1)     # K = F_2(s), s^2 = t
EXT_UNRAM = ExtensionDescriptor(F2T, e=1, f=2)   # K = F_4(s), s = t
EXT_QUARTIC = ExtensionDescriptor(F2T, e=2, f=2)  # K = F_4(s), s^2 = t
K_RAM = EXT_RAM.extension
K_UNRAM = EXT_UNRAM.extension
K4 = EXT_QUARTIC.extension

B1_RAM = BuildingDescriptor([(F2T, 1)])


def _point_ram(coord_str):
    return RigidPoint(B1_RAM, K_RAM, [[K_RAM.element(coord_str)]])


def _point_unram(coord_str, d=1):
    coords = [K_UNRAM.element(c) for c in ([coord_str] if isinstance(coord_str, str)
                                           else coord_str)]
    B = BuildingDescriptor([(F2T, d)])
    return RigidPoint(B, K_UNRAM, [coords])


def _point_quartic(coord_strs, d=None):
    coords = [K4.element(c) for c in coord_strs]
    d = len(coords) if d is None else d
    B = BuildingDescriptor([(F2T, d)])
    return RigidPoint(B, K4, [coords])


def test_rigid_point_validation():
    # s is not in F_2(t): {1, s} independent over F_2(t)
    _point_ram("s")
    # w generates F_4 over F_2: independent
    _point_unram("w")
    # a k-rational coordinate lies on a hyperplane
    with pytest.raises(ValueError):
        _point_ram("s^2")  # s^2 = t is in the base field
    with pytest.raises(ValueError):
        _point_unram("1+s")


def test_eval_abs_examples():
    x = _point_ram("s")
    t11 = Poly.var(K_RAM, (0, 1))
    av = eval_abs(x, t11)
    assert av.exponent == Fraction(1, 2)
    one = Poly.const(K_RAM, 1)
    assert eval_abs(x, one).exponent == 0
    # p = t_{1,1}^2 + t*t_{1,1} at x = s: |t + t*s| -> exponent 1
    p = t11 * t11 + t11.scale(K_RAM.element("s^2"))
    assert eval_abs(x, p).exponent == 1


def test_eval_abs_axioms_random():
    rng = random.Random(2718)
    x = _point_quartic(["w", "s*w"])
    keys = [(0, 1), (0, 2)]
    K = K4

    def rand_poly():
        p = Poly.const(K, 0)
        for _ in range(rng.randrange(1, 4)):
            term = Poly.const(K, K.from_digits(
                [rng.randrange(4) for _ in range(3)], shift=rng.randrange(-1, 2)))
            for k in keys:
                for _ in range(rng.randrange(0, 2)):
                    term = term * Poly.var(K, k)
            p = p + term
        return p

    for _ in range(1000):
        p, q = rand_poly(), rand_poly()
        vp, vq = eval_abs(x, p), eval_abs(x, q)
        assert eval_abs(x, p * q).exponent == (vp * vq).exponent
        vs = eval_abs(x, p + q)
        assert vs.exponent >= min(vp.exponent, vq.exponent)
        if vp.exponent != vq.exponent:
            assert vs.exponent == min(vp.exponent, vq.exponent)


def test_unimodular_representative_counts():
    for q, n, dim in [(2, 1, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3)]:
        model = LaurentModel.get(q)
        reps = unimodular_representatives(model, n, dim)
        assert len(reps) == unimodular_count(q, n, dim)
        assert len(set(tuple(str(c) for c in r) for r in reps)) == len(reps)
    # n=1, dim=2: projective line, q+1 classes
    assert unimodular_count(2, 1, 2) == 3


def test_omega_membership_examples():
    # x = w over the unramified quadratic: all |a_0 + a_1 w| = 1, so in X[1]
    x = _point_unram("w")
    assert omega_membership(x, 1, closed=True)
    assert omega_membership(x, 1, closed=False)

    # x = t*w: |a_0 + a_1 t w|: alpha = (1, anything) gives |1| = 1;
    # alpha = (0,1) gives |t w| = |t|; bound |t|^1 * max(1, |tw|) = |t|
    y = _point_unram("s*w")  # s = t in the unramified model
    assert omega_membership(y, 1, closed=True)
    assert not omega_membership(y, 1, closed=False)  # equality is not strict

    # any valid point is a member for some n within the budget
    for pt in [x, y, _point_ram("s"), _point_ram("s^3")]:
        n = membership_depth(pt, max_n=3)
        assert n is not None


def test_omega_filtration_monotone():
    # the filtration grows with n: X[n] <= X[m] for m >= n (the union is X);
    # s^3 is a witness in X[2] \ X[1]
    pts = [_point_unram("w"), _point_ram("s"), _point_unram("s*w"),
           _point_ram("s^3")]
    for x in pts:
        for n in range(1, 4):
            if omega_membership(x, n):
                for m in range(n + 1, 4):
                    assert omega_membership(x, m)
            if omega_membership(x, n, closed=False):
                assert omega_membership(x, n, closed=True)
    assert omega_membership(_point_ram("s^3"), 2)
    assert not omega_membership(_point_ram("s^3"), 1)


def _enumerated_max(x, i, N):
    """Test-side oracle: max v(alpha.x) over the unimodular alpha modulo
    pi_i^(N+1).  Whether v(alpha.x) <= n/e_i + min_j v(x_j) (or <) holds is
    invariant modulo pi_i^(n+1), so the max answers every n <= N exactly."""
    model, d = x.descriptor.factors[i]
    values = [x.value(i, j) for j in range(d + 1)]
    best = None
    for alpha in unimodular_representatives(model, N + 1, d + 1):
        acc = x.K.zero()
        for a, v in zip(alpha, values):
            acc = acc + tower_embed(a, x.K) * v
        v = val_root(acc)
        best = v if best is None or v > best else best
    return best


def _enumerated_answers(x, N):
    """{n: (closed, open)} for n <= N, and the first closed depth <= N."""
    maxima = []
    for i, (model, d) in enumerate(x.descriptor.factors):
        vmin = min(val_root(x.value(i, j)) for j in range(d + 1))
        maxima.append((_enumerated_max(x, i, N), vmin, model.ramification))
    answers = {n: (all(m <= Fraction(n, e) + vmin for m, vmin, e in maxima),
                   all(m < Fraction(n, e) + vmin for m, vmin, e in maxima))
               for n in range(1, N + 1)}
    depth = next((n for n in range(1, N + 1) if answers[n][0]), None)
    return answers, depth


def _seeded_points(q, tower, d, count, seed):
    """Rigid points over the extension K of F_q(t) built by the (e, f)
    steps of `tower`.  A coordinate is k-rational plus a small
    K-perturbation, so that the sample reaches several filtration depths
    and the boundaries, divided by a power s_K^m, m < e_K, of the
    uniformizer of K, so that min_j v(x_j) takes every residue mod 1/e_K."""
    base = LaurentModel.get(q)
    K = base
    for e, f in tower:
        K = ExtensionDescriptor(K, e=e, f=f).extension
    B = BuildingDescriptor([(base, d)])
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coords = []
        for _ in range(d):
            y = K.from_digits([rng.randrange(K.q) for _ in range(3)],
                              shift=rng.randrange(0, 3 * K.ramification))
            r = tower_embed(random_o_element(base, rng), K)
            coords.append((r + y) / K.uniformizer() ** rng.randrange(
                K.ramification))
        try:
            out.append(RigidPoint(B, K, [coords]))
        except ValueError:
            continue
    return out


# (q, tower, d, N) with d + 1 <= [K : k], since {1, x_1, .., x_d} is
# independent over k
_ORACLE_CASES = [(2, ((2, 1),), 1, 3), (2, ((1, 2),), 1, 3),
                 (2, ((2, 2),), 1, 3), (2, ((2, 2),), 2, 3),
                 (2, ((2, 1), (2, 1)), 1, 3), (2, ((2, 1), (2, 1)), 2, 3),
                 (2, ((1, 2), (2, 1)), 2, 2),
                 (3, ((2, 1),), 1, 3), (3, ((1, 2),), 1, 3),
                 (3, ((2, 2),), 1, 3), (3, ((2, 2),), 2, 2)]


def test_membership_matches_enumeration_mod_pi_n_plus_1():
    kinds = set()
    for case, (q, tower, d, N) in enumerate(_ORACLE_CASES):
        for x in _seeded_points(q, tower, d, 8, seed=case):
            answers, depth = _enumerated_answers(x, N)
            for n, (closed, strict) in answers.items():
                assert omega_membership(x, n, closed=True) == closed
                assert omega_membership(x, n, closed=False) == strict
                kinds.add((closed, strict))
            assert membership_depth(x, max_n=N) == depth
    # the sample has points outside X[n], on its boundary (closed but not
    # open) and strictly inside
    assert kinds == {(False, False), (True, False), (True, True)}


def _translate(x, g):
    """The rigid point g.x for g in GL_{d+1}(O) acting on (1, x_1, .., x_d),
    renormalized to affine coordinates; None when its first entry is 0."""
    model, d = x.descriptor.factors[0]
    values = [x.value(0, j) for j in range(d + 1)]
    y = []
    for row in g:
        acc = x.K.zero()
        for a, v in zip(row, values):
            acc = acc + tower_embed(a, x.K) * v
        y.append(acc)
    if y[0].valuation() == INF:
        return None
    return RigidPoint(x.descriptor, x.K, [[c / y[0] for c in y[1:]]])


def _memberships(x, N=3):
    return ([(omega_membership(x, n), omega_membership(x, n, closed=False))
             for n in range(1, N + 1)], membership_depth(x, max_n=N))


def test_membership_is_gl_o_invariant():
    # s^3 = (1+s^2+s^3) - (1+t): the two points are GL_2(O)-translates
    x = _point_ram("1+s^2+s^3")
    y = _point_ram("s^3")
    assert _memberships(x) == _memberships(y) == (
        [(False, False), (True, True), (True, True)], 2)
    g = [[F2T.one(), F2T.zero()], [F2T.element("1+t"), F2T.one()]]
    assert [str(c) for c in _translate(x, g).coords[0]] == ["s^3"]
    rng = random.Random(61)
    checked = 0
    for q, tower, d in [(2, ((2, 1),), 1), (2, ((2, 2),), 2),
                        (3, ((1, 2),), 1), (2, ((2, 1), (2, 1)), 1)]:
        base = LaurentModel.get(q)
        for x in _seeded_points(q, tower, d, 3, seed=q + d):
            g = matmul(base, random_unimodular(base, d + 1, rng),
                       random_unimodular(base, d + 1, rng))
            y = _translate(x, g)
            if y is None:
                continue
            assert _memberships(x) == _memberships(y)
            checked += 1
    assert checked >= 8


_INVARIANCE_CASES = [(2, ((2, 1),), 1), (2, ((2, 2),), 2), (3, ((1, 2),), 1),
                     (2, ((2, 1), (2, 1)), 1)]


@st.composite
def _o_elements(draw, model, unit=False):
    digits = draw(st.lists(st.integers(0, model.q - 1), min_size=1,
                           max_size=3))
    if unit:
        digits[0] = draw(st.integers(1, model.q - 1))
    return model.from_digits(digits)


@st.composite
def _gl_o(draw, model, n):
    """Lower unitriangular times upper triangular with unit diagonal, both
    over O: an element of GL_n(O)."""
    one, zero = model.one(), model.zero()
    lower = [[draw(_o_elements(model)) if i > j else (one if i == j else zero)
              for j in range(n)] for i in range(n)]
    upper = [[draw(_o_elements(model, unit=i == j)) if i <= j else zero
              for j in range(n)] for i in range(n)]
    return matmul(model, lower, upper)


@st.composite
def _rigid_points(draw, q, tower, d):
    """As `_seeded_points`: a k-rational coordinate plus a small
    K-perturbation, divided by s_K^m, m < e_K."""
    base = LaurentModel.get(q)
    K = base
    for e, f in tower:
        K = ExtensionDescriptor(K, e=e, f=f).extension
    coords = []
    for _ in range(d):
        y = K.from_digits(draw(st.lists(st.integers(0, K.q - 1), min_size=3,
                                        max_size=3)),
                          shift=draw(st.integers(0, 3 * K.ramification - 1)))
        r = tower_embed(draw(_o_elements(base)), K)
        m = draw(st.integers(0, K.ramification - 1))
        coords.append((r + y) / K.uniformizer() ** m)
    try:
        return RigidPoint(BuildingDescriptor([(base, d)]), K, [coords])
    except ValueError:
        assume(False)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_membership_is_gl_o_invariant_under_hypothesis(data):
    q, tower, d = data.draw(st.sampled_from(_INVARIANCE_CASES))
    x = data.draw(_rigid_points(q, tower, d))
    y = _translate(x, data.draw(_gl_o(LaurentModel.get(q), d + 1)))
    assume(y is not None)
    assert _memberships(x) == _memberships(y)


def _norm_points():
    """Seeded points over the `_INVARIANCE_CASES` towers (one and two
    steps, d = 1 and d = 2), and two-factor products of such points."""
    points = []
    for case, (q, tower, d) in enumerate(_INVARIANCE_CASES):
        points += _seeded_points(q, tower, d, 3, seed=70 + case)
    lines = _seeded_points(2, ((2, 2),), 1, 2, seed=80)
    planes = _seeded_points(2, ((2, 2),), 2, 2, seed=81)
    B = BuildingDescriptor([(F2T, 1), (F2T, 2)])
    for x, y in zip(lines, planes):
        points.append(RigidPoint(B, x.K, [x.coords[0], y.coords[0]]))
    return points


def _tau_by_val_root(x):
    """Test-side oracle for `tau_coordinates`: each coordinate's valuation
    in units of the tower root, times the ramification of its factor field."""
    return ApartmentPoint([
        (None, tuple(val_root(x.value(i, j)) * model.ramification
                     for j in range(d + 1)))
        for i, (model, d) in enumerate(x.descriptor.factors)])


def test_points_expand_each_coordinate_once(monkeypatch):
    # a point expands its coordinates over k_i when it is built; the
    # filtration tests, the depth bisection, the diagonalization and tau
    # read its factor norms and expand nothing
    calls = []
    expand = ExtensionDescriptor.expand
    monkeypatch.setattr(ExtensionDescriptor, "expand",
                        lambda self, y: calls.append(y) or expand(self, y))
    points = _norm_points()
    built = len(calls)
    assert built > 0
    diagonalized = 0
    for x in points:
        for n in range(1, 4):
            omega_membership(x, n, closed=True)
            omega_membership(x, n, closed=False)
        depth = membership_depth(x, max_n=3)
        if depth is not None:
            for i in range(x.descriptor.r):
                diagonalize_norm(x, i, depth)
            diagonalized += 1
        assert tau_coordinates(x) == _tau_by_val_root(x)
    assert len(calls) == built
    assert diagonalized >= len(points) // 2
    assert any(x.descriptor.r == 2 for x in points)


def test_membership_depth_beyond_the_first_level():
    # alpha = (1+t^2, 1) gives v(alpha.x) = v(t^2 s) = 5/2 > 2
    x = _point_ram("1+s^4+s^5")
    assert not omega_membership(x, 2)
    assert omega_membership(x, 3)
    assert _enumerated_max(x, 0, 3) == Fraction(5, 2)
    assert membership_depth(x, max_n=3) == 3
    assert membership_depth(x, max_n=2) is None


def test_omega_budget():
    x = _point_ram("s")
    with pytest.raises(BudgetError):
        omega_membership(x, 3, budget=10)


def test_membership_budget_states_predicted_and_allowed_work():
    x = _point_ram("s")
    with pytest.raises(BudgetError, match=r"predict \d+ digit operations "
                                          r"\(> budget 10\)"):
        membership_depth(x, max_n=3, budget=10)


def test_verification_budget_states_predicted_and_allowed_work():
    x = _point_ram("s")
    basis, _exps = diagonalize_norm(x, 0, 1)
    # q = 2, depth 2, d + 1 = 2: 2 + 4 unimodular vectors
    assert unimodular_count(2, 2, 2) == 6
    with pytest.raises(BudgetError, match=r"^verification needs 6 vectors "
                                          r"\(> budget 5\)$"):
        verify_diagonal(x, 0, basis, 2, budget=5)
    assert verify_diagonal(x, 0, basis, 2, budget=6)


def test_tau_coordinates():
    x = _point_unram("w")
    pt = tau_coordinates(x)
    assert pt.exponents(0) == (0, 0)

    # a coordinate of fractional valuation sits inside a subdivided edge
    z = _point_ram("s")
    pt = tau_coordinates(z)
    assert pt.exponents(0) == (0, Fraction(1, 2))

    z3 = _point_ram("s^3")
    assert tau_coordinates(z3).exponents(0) == (0, Fraction(3, 2))


def test_diagonalize_norm_already_diagonal():
    x = _point_unram("w")
    basis, exps = diagonalize_norm(x, 0, 1)
    assert exps == (0, 0)
    assert [[str(c) for c in row] for row in basis] == [["1", "0"], ["0", "1"]]
    assert verify_diagonal(x, 0, basis, 2)


def test_diagonalize_norm_ramified_midpoint():
    x = _point_ram("s")
    basis, exps = diagonalize_norm(x, 0, 1)
    assert exps == (0, Fraction(1, 2))
    assert verify_diagonal(x, 0, basis, 2)


def test_diagonalize_norm_d2():
    # the nearest valid relative of the (w, t*w) picture: over a quadratic K
    # the set {1, w, t*w} is k-dependent, so a quartic K hosts the d=2 point
    x = _point_quartic(["w", "s*w"])
    basis, exps = diagonalize_norm(x, 0, 1)
    assert sorted(exps) == [0, 0, Fraction(1, 2)]
    assert verify_diagonal(x, 0, basis, 2)


def test_diagonalize_norm_nontrivial_reduction():
    # x = 1 + s: {1, x} independent over F_2(t); |a_0 + a_1(1+s)| is not
    # diagonal in the standard basis (a = (1,1): |1 + 1 + s| = |s| < 1)
    x = _point_ram("1+s")
    basis, exps = diagonalize_norm(x, 0, 1)
    assert verify_diagonal(x, 0, basis, 2)
    assert Fraction(1, 2) in exps


def test_diagonalize_certificate_error():
    deep = _point_ram("s^3")  # in X[2] but not X[1]
    with pytest.raises(ValueError, match="certification depth"):
        diagonalize_norm(deep, 0, 1)
    basis, exps = diagonalize_norm(deep, 0, 2)
    assert exps == (0, Fraction(3, 2))
    assert verify_diagonal(deep, 0, basis, 3)


# (q, tower, d, N): the first depth n <= N of each point, re-verified by
# enumeration at n + 1 and n + 2
_DIAGONAL_CASES = [(2, ((2, 1),), 1, 3), (2, ((1, 2),), 1, 3),
                   (2, ((2, 2),), 1, 3), (2, ((2, 2),), 2, 2),
                   (2, ((2, 1), (2, 1)), 2, 2),
                   (3, ((2, 1),), 1, 3), (3, ((1, 2),), 1, 3),
                   (3, ((2, 2),), 1, 3), (3, ((2, 2),), 2, 1)]


def test_diagonalize_norm_matches_enumeration():
    depths = []
    standard_fails = 0
    for case, (q, tower, d, N) in enumerate(_DIAGONAL_CASES):
        for x in _seeded_points(q, tower, d, 6, seed=40 + case):
            n = membership_depth(x, max_n=N)
            if n is None:
                continue
            basis, exps = diagonalize_norm(x, 0, n)
            assert verify_diagonal(x, 0, basis, n + 1)
            assert verify_diagonal(x, 0, basis, n + 2)
            assert list(exps) == sorted(exps)
            model = x.descriptor.factors[0][0]
            identity = [[model.one() if j == k else model.zero()
                         for k in range(d + 1)] for j in range(d + 1)]
            standard_fails += not verify_diagonal(x, 0, identity, n + 1)
            depths.append(n)
    # the sample reaches every depth, and the standard basis is not
    # diagonal on a good share of it
    assert set(depths) == {1, 2, 3}
    assert standard_fails >= len(depths) // 3


def test_diagonalize_norm_deep_certificate():
    # an enumeration modulo pi^(n+1) = pi^9 would visit 458752 vectors
    x = _point_quartic(["w", "s*w"])
    basis, exps = diagonalize_norm(x, 0, 8)
    assert sorted(exps) == [0, 0, Fraction(1, 2)]
    assert verify_diagonal(x, 0, basis, 3)


def test_diagonalize_budget_counts_every_lattice_test():
    x = _point_ram("s")
    omega_membership(x, 1, budget=100)  # the precondition alone fits
    with pytest.raises(BudgetError, match=r"the lattice tests predict \d+ "
                                          r"digit operations \(> budget 100\)"):
        diagonalize_norm(x, 0, 1, budget=100)


def test_gauss_eval_examples():
    B = BuildingDescriptor([(F2T, 1)])
    origin = GaussSeminorm(B, [(None, (0, 0))])
    T0 = Poly.var(K_RAM, (0, 0))
    T1 = Poly.var(K_RAM, (0, 1))
    assert gauss_eval(origin, T0 + T1, K_RAM).exponent == 0

    b = GaussSeminorm(B, [(None, (0, 1))])  # rho(T_1) = |t|
    p = T1 * T1
    assert gauss_eval(b, p, K_RAM).exponent == 2

    rng = random.Random(14)
    for _ in range(30):
        exps = (0, Fraction(rng.randrange(0, 5), 2))
        b = GaussSeminorm(B, [(None, exps)])
        # random linear form: max over terms
        c0 = K_RAM.from_digits([rng.randrange(2) for _ in range(3)])
        c1 = K_RAM.from_digits([rng.randrange(2) for _ in range(3)], shift=1)
        p = T0.scale(c0) + T1.scale(c1)
        got = gauss_eval(b, p, K_RAM)
        terms = []
        if c0.valuation() != INF:
            terms.append(Fraction(c0.valuation(), 2) + exps[0])
        if c1.valuation() != INF:
            terms.append(Fraction(c1.valuation(), 2) + exps[1])
        assert got.exponent == (min(terms) if terms else INF)


def test_gauss_tau_j_identity():
    # gauss_eval on the linear forms reproduces the defining exponents
    B = BuildingDescriptor([(F2T, 2)])
    exps = (0, Fraction(1, 2), 1)
    b = GaussSeminorm(B, [(None, exps)])
    for j in range(3):
        Tj = Poly.var(K_RAM, (0, j))
        assert gauss_eval(b, Tj, K_RAM).exponent == exps[j]


def test_deform_endpoints():
    x = _point_ram("s")
    t11 = Poly.var(K_RAM, (0, 1))
    p = t11 * t11 + t11.scale(K_RAM.element("s^2")) + Poly.const(K_RAM, K_RAM.element("s^2"))
    # t = 0 (exponent INF): rho_0 = rho
    assert deform(x, INF, p).exponent == eval_abs(x, p).exponent
    # t = 1 (exponent 0): Gauss value max |a_N| prod rho(x_j)^{n_j}
    vx = eval_abs(x, t11).exponent
    gauss = min(2 * vx, 1 + vx, 1)
    assert deform(x, 0, p).exponent == gauss


def test_deform_example_rho1():
    # p = t_{1,1} + c: rho_1 = max(|x|, |c|)
    x = _point_ram("s")
    for c_str in ["1", "s^2", "s^4"]:
        c = K_RAM.element(c_str)
        p = Poly.var(K_RAM, (0, 1)) + Poly.const(K_RAM, c)
        want = min(eval_abs(x, Poly.var(K_RAM, (0, 1))).exponent,
                   Fraction(c.valuation(), 2))
        assert deform(x, 0, p).exponent == want


def test_deform_linear_constant_on_diagonal_points():
    # for x with diagonal restricted norm, rho_t(p) = rho(p) for linear p
    x = _point_quartic(["w", "s*w"])
    for c0, c1, c2 in [("1", "1", "0"), ("s", "w", "1"), ("0", "1", "w")]:
        p = (Poly.const(K4, K4.element(c0))
             + Poly.var(K4, (0, 1)).scale(K4.element(c1))
             + Poly.var(K4, (0, 2)).scale(K4.element(c2)))
        base = eval_abs(x, p).exponent
        for t_exp in [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]:
            assert deform(x, t_exp, p).exponent == base


def _deform_by_terms(x, t_exponent, p, i=0):
    """Test-side oracle for `deform`: max_N t^{|N|} |D_N(p)(x)|, with each
    D_N(p)(x) summed term by term from the a_I x^I with I >= N."""
    model, d = x.descriptor.factors[i]
    keys = [(i, j) for j in range(1, d + 1)]
    assign = x.assignment()
    deg = p.multidegree()
    ranges = [range(deg.get(k, 0) + 1) for k in keys]
    best = INF
    for N in product(*ranges):
        if t_exponent == INF and any(N):
            continue
        acc = x.K.zero()
        for mono, c in p.terms.items():
            mexp = dict(mono)
            coeff = 1
            ok = True
            for key, nk in zip(keys, N):
                ik = mexp.get(key, 0)
                if ik < nk:
                    ok = False
                    break
                coeff *= math.comb(ik, nk)
            if not ok:
                continue
            term = c * x.K.element(coeff)
            if term.valuation() == INF:
                continue
            for key, nn in mono:
                term = term * assign[key] ** nn
            acc = acc + term
        v = val_root(acc)
        if v != INF and t_exponent != INF:
            v = v + t_exponent * sum(N)
        if v < best:
            best = v
    return best


def _seeded_poly(x, rng, degree=3, terms=4):
    """A polynomial in the variables (0, 0..d) of x with up to `terms`
    monomials of degree at most `degree` in each variable, and seeded
    coefficients in K (some of them zero)."""
    K = x.K
    d = x.descriptor.factors[0][1]
    p = Poly.const(K, 0)
    for _ in range(rng.randrange(1, terms + 1)):
        term = Poly.const(K, K.from_digits(
            [rng.randrange(K.q) for _ in range(3)], shift=rng.randrange(-1, 2)))
        for j in range(d + 1):
            for _ in range(rng.randrange(degree + 1) if j else rng.randrange(2)):
                term = term * Poly.var(K, (0, j))
        p = p + term
    return p


def test_deform_equals_the_term_by_term_oracle():
    rng = random.Random(404)
    points = (_seeded_points(2, ((2, 1),), 1, 3, seed=90)
              + _seeded_points(3, ((2, 1),), 1, 2, seed=91)
              + _seeded_points(2, ((2, 2),), 2, 3, seed=92)
              + [_point_quartic(["w", "s*w"])])
    ts = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
    ds = set()
    for x in points:
        for _ in range(6):
            p = _seeded_poly(x, rng)
            for t in ts:
                assert deform(x, t, p).exponent == _deform_by_terms(x, t, p)
        ds.add(x.descriptor.factors[0][1])
    assert ds == {1, 2}


def _seeded_product_points(count, seed):
    """Rigid points over K4 of the product B_(1) x B_(2) of F_2((t))."""
    B = BuildingDescriptor([(F2T, 1), (F2T, 2)])
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coords = [[K4.from_digits([rng.randrange(K4.q) for _ in range(3)],
                                  shift=rng.randrange(-1, 3))
                   for _ in range(d)] for d in (1, 2)]
        try:
            out.append(RigidPoint(B, K4, coords))
        except ValueError:
            continue
    return out


def test_deform_on_a_product_equals_the_term_by_term_oracle():
    # every polynomial has a monomial in (0, 1), (1, 1) and (1, 2) at once,
    # so deforming either factor leaves the other factor's values in it
    rng = random.Random(406)
    keys = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
    ts = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
    for x in _seeded_product_points(4, seed=93):
        for _ in range(4):
            p = Poly.const(K4, 0)
            for mixed in [True] + [False] * rng.randrange(1, 4):
                term = Poly.const(K4, K4.from_digits(
                    [rng.randrange(K4.q) for _ in range(3)],
                    shift=rng.randrange(-1, 2)))
                for key in keys:
                    low = 1 if mixed and key[1] else 0
                    for _ in range(rng.randrange(low, 3)):
                        term = term * Poly.var(K4, key)
                p = p + term
            for t in ts:
                for i in (0, 1):
                    assert (deform(x, t, p, i).exponent
                            == _deform_by_terms(x, t, p, i))


def test_deform_rejects_negative_t():
    x = _point_ram("s")
    with pytest.raises(ValueError):
        deform(x, -1, Poly.var(K_RAM, (0, 1)))


def test_dual_coords():
    pt = ApartmentPoint([(None, (0, 0))])
    assert dual_coords(pt, 0) == (0, 0)
    pt = ApartmentPoint([(None, (0, 1))])
    assert dual_coords(pt, 0) == (0, -1)
    # random diagonal vertex: dual coords = coordinates of the involution image
    rng = random.Random(33)
    for _ in range(20):
        exps = tuple(rng.randrange(0, 4) for _ in range(3))
        v = PolyVertex((vertex_from_diagonal(F3T, exps),))
        pt = apartment_point_of_vertex(v)
        lv = involution_lambda(v, [1])
        lpt = apartment_point_of_vertex(lv)
        sc = dual_coords(pt, 0)
        norm = tuple(x - sc[0] for x in sc)
        assert norm == lpt.exponents(0)


def test_tower_embed_two_levels():
    ext2 = ExtensionDescriptor(K_RAM, e=1, f=2)
    K2 = ext2.extension
    x = F2T.element("1+t")
    y = tower_embed(x, K2)
    assert valuation(y) == 0
    assert tower_embed(x, F2T) == x
