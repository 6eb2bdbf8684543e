"""The group action [L] -> [g L], the dual and nu, computed in digits,
against independent oracles: the field-level constructions they replace
(canonical form of g T, of (T^T)^{-1} and of the embedded basis), Smith
normal forms from sympy (test-only), and algebraic properties of the
action under hypothesis (test-only)."""

import random

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

from btbuildings import building, lattice, linalg
from btbuildings.autdecomp import AutWord
from btbuildings.building import BuildingDescriptor, PolyVertex, act
from btbuildings.cli import main
from btbuildings.field import (INF, ExtensionDescriptor, LaurentModel,
                               PAdicModel)
from btbuildings.lattice import (
    PrecisionError, VertexClass, _triangularize_digits, action,
    canonical_form, class_pair_min, class_pair_residue, column_class,
    digit_ops, dual, guard_precision,
    neighbors_by_colength, pair_index_normalized, skeleton_distance,
    standard_vertex, vertex_from_diagonal,
)
from btbuildings.linalg import det, inverse, matmul, transpose
from btbuildings.subdivision import nu_embed
from btbuildings.verify import random_element, random_unimodular, random_vertex

FIELDS = [PAdicModel.get(2), PAdicModel.get(3), PAdicModel.get(5),
          LaurentModel.get(2), LaurentModel.get(3), LaurentModel.get(4),
          LaurentModel.get(9)]


def _dual_reference(v):
    """The dual as the canonical form of the columns of (T^T)^{-1}."""
    model = v.model
    return canonical_form(model, inverse(model, transpose(v.primitive_matrix())))


def _act_reference(g, v):
    """[g L] as the canonical form of the field-level product g T."""
    return canonical_form(v.model, matmul(v.model, g, v.primitive_matrix()))


def _random_group_matrix(model, n, rng):
    """Entries of every valuation sign, some zero; every fifth matrix is
    made singular by repeating a scaled column."""
    g = [[model.zero() if rng.random() < 0.25 else random_element(model, rng)
          for _ in range(n)] for _ in range(n)]
    if rng.randrange(5) == 0:
        a, b = rng.sample(range(n), 2)
        c = random_element(model, rng)
        for row in g:
            row[a] = row[b] * c
    return g


@pytest.mark.parametrize("model", FIELDS, ids=repr)
def test_act_and_dual_match_the_field_level_references(model):
    rng = random.Random(f"action:{model!r}")
    checked = singular = 0
    for n in (2, 3, 4):
        for _ in range(40):
            v = random_vertex(model, n, rng)
            assert dual(v) == _dual_reference(v)
            g = _random_group_matrix(model, n, rng)
            if not det(model, g):
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    _act_reference(g, v)
                with pytest.raises(ValueError, match="singular"):
                    act([g], PolyVertex((v,)))
                continue
            assert act([g], PolyVertex((v,))).components[0] == \
                _act_reference(g, v)
            checked += 1
    assert checked >= 50 and singular >= 10


# -- the precision search against the determinant (test-only oracle) ---------

S2 = ExtensionDescriptor(LaurentModel.get(2), e=2).extension   # s^2 = t
SEARCH_FIELDS = [PAdicModel.get(2), PAdicModel.get(3), LaurentModel.get(2),
                 LaurentModel.get(4), S2]


def _det_class(model, g):
    """[g O^n] as `action` found it with a determinant: v(det g), from one
    field-level elimination, fixes 2D+2 digits for the primitive scaling G
    of g, D = v(det G)."""
    dv = det(model, g).valuation()
    if dv == INF:
        raise ValueError("singular matrix")
    n = len(g)
    m = min(x.valuation() for row in g for x in row)
    scale = model.uniformizer() ** (-m)
    ops = digit_ops(model, 2 * (dv - n * m) + 2)
    cols = [[ops.from_field(row[c] * scale) for row in g] for c in range(n)]
    exps, lower, _ = _triangularize_digits(ops, cols, n)
    return VertexClass(model, exps, lower)


def _near_singular(model, rng, exps):
    """U diag(pi^e) V, U and V in GL_n(O): v(det) = sum(exps)."""
    n = len(exps)
    diag = [[model.uniformizer() ** exps[i] if i == j else model.zero()
             for j in range(n)] for i in range(n)]
    return matmul(model, matmul(model, random_unimodular(model, n, rng), diag),
                  random_unimodular(model, n, rng))


def _search_inputs(model, rng):
    """Raw bases with denominators and negative-valuation entries, bases
    with v(det) = 25, and [[1, 1], [1, 1 + pi^k]] with v(det) = k <= 40."""
    pi, one = model.uniformizer(), model.one()
    out = [[[random_element(model, rng) for _ in range(n)] for _ in range(n)]
           for n in (2, 3, 4) for _ in range(8)]
    out += [_near_singular(model, rng, exps)
            for exps in ((0, 3, 7, 15), (25, 0, 0, 0), (5, 5, 5, 10))]
    out += [[[one, one], [one, one + pi ** k]] for k in (1, 2, 5, 17, 40)]
    out += [[[x * pi ** -3 for x in row]
             for row in [[one, one], [one, one + pi ** 9]]]]
    return out


def _spy_passes(monkeypatch, start=1):
    """Record each `_triangularize_digits` pass as (M, outcome), with the
    precision search started at `start` digits."""
    passes = []

    def spy(ops, cols, n):
        try:
            out = _triangularize_digits(ops, cols, n)
        except PrecisionError as err:
            passes.append((ops.M, "vanish" if err.pivot_sum is None
                           else "guard"))
            raise
        passes.append((ops.M, "pass"))
        return out

    monkeypatch.setattr(lattice, "_triangularize_digits", spy)
    monkeypatch.setattr(lattice, "_SEARCH_START", start)
    return passes


@pytest.mark.parametrize("start", [1, lattice._SEARCH_START])
@pytest.mark.parametrize("model", SEARCH_FIELDS, ids=repr)
def test_the_precision_search_finds_the_determinant_class(model, start,
                                                          monkeypatch):
    rng = random.Random(f"search:{model!r}")
    passes = _spy_passes(monkeypatch, start)
    checked = 0
    for g in _search_inputs(model, rng):
        if not det(model, g):
            continue
        want = _det_class(model, g)
        n = len(g)
        apply = action(model, g)
        assert apply(standard_vertex(model, n)) == want
        v = random_vertex(model, n, rng)
        assert apply(v) == _det_class(
            model, matmul(model, g, v.primitive_matrix()))
        checked += 1
    assert checked >= 25
    # the searches met vanishing pivots and failed guards on the way
    assert {kind for _m, kind in passes} == {"vanish", "guard", "pass"}


GUARD_FIELDS = [PAdicModel.get(2), PAdicModel.get(3), LaurentModel.get(2),
                LaurentModel.get(3), LaurentModel.get(4), S2]


@pytest.mark.parametrize("model", GUARD_FIELDS, ids=repr)
def test_the_guard_refuses_D_digits_and_certifies_D_plus_one(model):
    # the primitive scaling G of a seeded raw basis, D = v(det G) from one
    # field-level elimination: D digits never pass the guard, and the
    # D + 1 of `guard_precision` give the class of the 2D + 2 digit oracle
    rng = random.Random(f"guard:{model!r}")
    checked = 0
    for g in _search_inputs(model, rng):
        dv = det(model, g).valuation()
        n = len(g)
        m = min(x.valuation() for row in g for x in row)
        D = dv - n * m
        if dv == INF or not D:
            continue
        scale = model.uniformizer() ** (-m)

        def columns(M):
            ops = digit_ops(model, M)
            return ops, [[ops.from_field(row[c] * scale) for row in g]
                         for c in range(n)]
        with pytest.raises(PrecisionError):
            column_class(*columns(D))
        assert column_class(*columns(guard_precision(D)))[0] == \
            _det_class(model, g)
        checked += 1
    assert checked >= 25


@pytest.mark.parametrize("row,bound,trace", [
    (["1", "1+t"], 1, [(1, "vanish"), (2, "pass")]),
    (["1", "1+t^5"], 5, [(1, "vanish"), (2, "vanish"), (4, "vanish"),
                         (6, "pass")]),
    (["1+t^20", "1+t^5+t^20"], 20, [(1, "vanish"), (2, "vanish"),
                                    (4, "vanish"), (8, "pass")]),
])
def test_every_retry_branch_runs_from_one_digit(row, bound, trace,
                                                monkeypatch):
    # [[1, 1], row] has v(det) = 1 or 5 and the degree bound B = deg row:
    # its second pivot vanishes below v(det) + 1 digits, and M doubles,
    # capped at B + 1, until the pivot shows and the pass meets the guard
    model = LaurentModel.get(2)
    passes = _spy_passes(monkeypatch)
    g = [[model.one(), model.one()], [model.element(x) for x in row]]
    assert model.det_valuation_bound(g) == bound
    assert action(model, g)(standard_vertex(model, 2)) == \
        _det_class(model, g)
    assert passes == trace


@pytest.mark.parametrize("rows,bound,trace", [
    ([["t", "t"], ["1", "1+t"]], 2,
     [(1, "vanish"), (2, "guard"), (3, "pass")]),
    ([["t", "t"], ["1+t^20", "1+t+t^20"]], 21,
     [(1, "vanish"), (2, "guard"), (4, "pass")]),
    ([["t^3", "t^3", "t^3"], ["1+t^20", "1+t^3+t^20", "1+t^20"],
      ["1", "1", "1+t^3"]], 26,
     [(1, "vanish"), (2, "vanish"), (4, "guard"), (10, "pass")]),
])
def test_a_failed_guard_retries_at_the_pivot_sum_or_twice_the_precision(
        rows, bound, trace, monkeypatch):
    # the first row lies in pi O, so the first pivot is pi^a with a > 0 and
    # a pass that finds every pivot can read a pivot sum D' >= M.  The
    # retry is at max(D' + 1, 2M), capped at B + 1: D' = 2 at M = 2 gives
    # 4, capped at 3 in the first case; D' = 9 at M = 4 gives 10
    model = LaurentModel.get(2)
    passes = _spy_passes(monkeypatch)
    g = [[model.element(x) for x in row] for row in rows]
    assert model.det_valuation_bound(g) == bound
    assert action(model, g)(standard_vertex(model, len(g))) == \
        _det_class(model, g)
    assert passes == trace


def _rank_deficient(model, rng, n=4):
    """An n x n matrix of rank < n with every entry nonzero."""
    while True:
        rows = [[random_element(model, rng) for _ in range(n)]
                for _ in range(n - 1)]
        c = random_element(model, rng)
        rows.append([x + c * y for x, y in zip(rows[0], rows[1])])
        if all(x for row in rows for x in row):
            return rows


@pytest.mark.parametrize("model", SEARCH_FIELDS, ids=repr)
def test_singular_matrices_fail_the_search(model, monkeypatch):
    rng = random.Random(f"singular:{model!r}")
    full = [random_element(model, rng) for _ in range(3)]
    zero_row = [full, [model.zero()] * 3, full[::-1]]
    singular = [_rank_deficient(model, rng), zero_row]
    for g in singular:
        assert not det(model, g)
        with pytest.raises(ValueError, match="^singular matrix$"):
            canonical_form(model, g)
    passes = _spy_passes(monkeypatch)
    for g in singular:
        del passes[:]
        with pytest.raises(ValueError, match="^singular matrix$"):
            action(model, g)
        assert all(kind != "pass" for _m, kind in passes)
    # a primitive singular matrix fails every pass, the last at B + 1
    g = _rank_deficient(model, rng, 3)
    m = min(x.valuation() for row in g for x in row)
    g = [[x * model.uniformizer() ** -m for x in row] for row in g]
    del passes[:]
    with pytest.raises(ValueError, match="^singular matrix$"):
        action(model, g)
    assert passes[-1][0] == model.det_valuation_bound(g) + 1


@pytest.mark.parametrize("vertex", ['[["1","2","3","6"]]',
                                    '[["0","0","1","2"]]'])
def test_btb_project_exits_2_on_a_singular_vertex(vertex, capsys):
    assert main(["--d", "1", "project", "--vertex", vertex]) == 2
    assert "singular matrix" in capsys.readouterr().err


def test_an_apartment_query_runs_no_field_elimination(monkeypatch):
    calls = []
    eliminate = linalg._eliminate

    def spy(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    model = PAdicModel.get(2)
    raw = [["3/5", "2", "-1/3", "4"], ["1", "6", "0", "1/7"],
           ["12", "-5", "8/3", "2"], ["1/9", "4", "4", "3"]]
    x = PolyVertex((canonical_form(model, raw),))
    y = PolyVertex((canonical_form(model, [row[::-1] for row in raw]),))
    building.project_apartment(x)
    building.labelling_C(x)
    building.involution_lambda(x, [1])
    building.distance_f(y, x)
    assert not calls
    # the spy sees the elimination that det runs
    det(model, [[model.element(x) for x in row] for row in raw])
    assert len(calls) == 1


def test_a_singular_group_generator_fails_when_the_word_is_built():
    Q2 = PAdicModel.get(2)
    B1 = BuildingDescriptor([(Q2, 1)])
    with pytest.raises(ValueError, match="singular matrix"):
        AutWord(B1, [{"kind": "group", "matrices": [[["1", "1"], ["1", "1"]]]}])


@pytest.mark.parametrize("e,f", [(2, 1), (1, 2), (3, 1)])
def test_nu_embed_matches_the_embedded_basis(e, f):
    base = LaurentModel.get(2)
    ext = ExtensionDescriptor(base, e=e, f=f)
    rng = random.Random(f"nu:{e},{f}")
    for n in (2, 3):
        for _ in range(10):
            v = random_vertex(base, n, rng)
            prim = v.primitive_matrix()
            want = canonical_form(ext.extension,
                                  [[ext.embed(x) for x in row] for row in prim])
            assert nu_embed(v, ext) == want


# -- Smith normal form oracle (sympy, test-only) ------------------------------

def _integer_matrix(mat):
    """A p-adic primitive matrix has integer entries; as a sympy Matrix."""
    return sympy.Matrix([[int(x.raw) for x in row] for row in mat])


def _divisor_valuations(mat, p):
    snf = smith_normal_form(mat, domain=ZZ)
    return sorted(sympy.multiplicity(p, snf[i, i]) for i in range(mat.rows))


@pytest.mark.parametrize("model", FIELDS, ids=repr)
def test_class_pair_residue_equals_the_field_level_product(model):
    """(m, A) of `class_pair_residue` is m = min v(T_x^{-1} T_y) and
    A = pi^(-m) T_x^{-1} T_y mod pi, T_x^{-1} T_y from field-level linear
    algebra; a class against itself gives (0, I)."""
    rng = random.Random(f"pair-residue:{model!r}")
    pi = model.uniformizer()
    for n in (2, 3, 4):
        for _ in range(12):
            x, y = random_vertex(model, n, rng), random_vertex(model, n, rng)
            prod = matmul(model, inverse(model, x.primitive_matrix()),
                          y.primitive_matrix())
            m = min(e.valuation() for row in prod for e in row)
            residue = tuple(tuple(model.to_digits(e * pi ** -m, 1)[0]
                                  for e in row) for row in prod)
            assert class_pair_residue(x, y) == (m, residue)
            unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            assert class_pair_residue(x, x) == (0, unit)


@pytest.mark.parametrize("model", [PAdicModel.get(2), PAdicModel.get(3),
                                   LaurentModel.get(2), LaurentModel.get(3),
                                   LaurentModel.get(4)], ids=repr)
def test_class_pair_min_is_the_minimum_of_the_residue_pair(model):
    rng = random.Random(f"pair-min:{model!r}")
    for n in (2, 3, 4):
        for _ in range(20):
            x, y = random_vertex(model, n, rng), random_vertex(model, n, rng)
            assert class_pair_min(x, y) == class_pair_residue(x, y)[0]
            assert class_pair_min(y, x) == class_pair_residue(y, x)[0]


@pytest.mark.parametrize("p", [2, 3])
def test_class_pairs_and_dual_against_smith_normal_forms(p):
    """The elementary divisors of T_x^{-1} T_y have the valuations of those
    of adj(T_x) T_y less D_x; their minimum, spread and normalized sum are
    the pair functions.  The pairing of a class with its dual is
    unimodular up to a scalar."""
    model = PAdicModel.get(p)
    rng = random.Random(f"snf:{p}")
    for n in (3, 4):
        for _ in range(15):
            x, y = random_vertex(model, n, rng), random_vertex(model, n, rng)
            tx = _integer_matrix(x.primitive_matrix())
            ty = _integer_matrix(y.primitive_matrix())
            vals = [a - x.det_valuation()
                    for a in _divisor_valuations(tx.adjugate() * ty, p)]
            assert class_pair_residue(x, y)[0] == vals[0]
            assert pair_index_normalized(x, y) == sum(vals) - n * vals[0]
            assert skeleton_distance(x, y) == vals[-1] - vals[0]
            pairing = _integer_matrix(dual(x).primitive_matrix()).T * tx
            assert len(set(_divisor_valuations(pairing, p))) == 1


# -- properties of the action (hypothesis, test-only) -------------------------

PROPERTY_FIELDS = [PAdicModel.get(2), PAdicModel.get(3), LaurentModel.get(2),
                   LaurentModel.get(4)]
PROPERTY_SETTINGS = settings(max_examples=20, derandomize=True, database=None,
                             deadline=None)


def _elements(model, low=-2):
    q = model.residue_size
    return st.builds(lambda digits, shift: model.from_digits(digits, shift),
                     st.lists(st.integers(0, q - 1), min_size=1, max_size=3),
                     st.integers(low, 2))


@st.composite
def _matrices(draw, model, n):
    g = [[draw(_elements(model)) for _ in range(n)] for _ in range(n)]
    assume(det(model, g))
    return g


@st.composite
def _classes(draw, model, n):
    exps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    g = draw(_matrices(model, n))
    return action(model, g)(vertex_from_diagonal(model, exps))


@st.composite
def _unimodular(draw, model, n):
    """lower unitriangular times upper triangular with unit diagonal, both
    over O: an element of GL_n(O)."""
    q = model.residue_size
    one, zero = model.one(), model.zero()
    lower = [[draw(_elements(model, 0)) if i > j else (one if i == j else zero)
              for j in range(n)] for i in range(n)]
    upper = [[draw(_elements(model, 0)) if i < j else zero for j in range(n)]
             for i in range(n)]
    for i in range(n):
        unit = draw(st.integers(1, q - 1))
        upper[i][i] = model.from_digits([unit] + draw(
            st.lists(st.integers(0, q - 1), max_size=2)))
    return matmul(model, lower, upper)


@st.composite
def _quotients(draw, model):
    y = draw(_elements(model))
    assume(y)
    return draw(_elements(model)) / y


@pytest.mark.parametrize("model", PROPERTY_FIELDS + [S2], ids=repr)
def test_the_height_bound_dominates_the_determinant_valuation(model):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        g = [[data.draw(_quotients(model)) for _ in range(n)]
             for _ in range(n)]
        dv = det(model, g).valuation()
        assume(dv != INF)
        assert model.det_valuation_bound(g) >= dv
    check()


@pytest.mark.parametrize("model", PROPERTY_FIELDS, ids=repr)
def test_action_is_a_group_action(model):
    @PROPERTY_SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        g, h = data.draw(_matrices(model, n)), data.draw(_matrices(model, n))
        v = data.draw(_classes(model, n))
        assert action(model, g)(action(model, h)(v)) == \
            action(model, matmul(model, g, h))(v)
    check()


@pytest.mark.parametrize("model", PROPERTY_FIELDS, ids=repr)
def test_integral_unimodular_matrices_fix_the_standard_class(model):
    @PROPERTY_SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        k = data.draw(_unimodular(model, n))
        assert action(model, k)(standard_vertex(model, n)) == \
            standard_vertex(model, n)
    check()


@pytest.mark.parametrize("model", PROPERTY_FIELDS, ids=repr)
def test_action_shifts_the_label_by_the_determinant(model):
    @PROPERTY_SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        g = data.draw(_matrices(model, n))
        v = data.draw(_classes(model, n))
        assert action(model, g)(v).label() == \
            (v.label() + det(model, g).valuation()) % n
    check()


@pytest.mark.parametrize("model", PROPERTY_FIELDS, ids=repr)
def test_the_action_carries_neighbors_to_neighbors(model):
    # homogeneity: g maps the neighbors of [L] onto those of [g L], whose
    # labels are the label of [g L] shifted by the colength
    @PROPERTY_SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        g = action(model, data.draw(_matrices(model, n)))
        v = data.draw(_classes(model, n))
        gv = g(v)
        for w in range(1, n):
            near = neighbors_by_colength(gv, w)
            assert set(near) == {g(u) for u in neighbors_by_colength(v, w)}
            assert {u.label() for u in near} == {(gv.label() + w) % n}
    check()


@pytest.mark.parametrize("model", PROPERTY_FIELDS, ids=repr)
def test_dual_intertwines_g_with_its_inverse_transpose(model):
    @PROPERTY_SETTINGS
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        g = data.draw(_matrices(model, n))
        v = data.draw(_classes(model, n))
        g_star = inverse(model, transpose(g))
        assert dual(action(model, g)(v)) == action(model, g_star)(dual(v))
    check()
