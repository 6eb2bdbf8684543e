import random

import pytest
import sympy

from btbuildings.field import LaurentModel, PAdicModel
from btbuildings.linalg import (det, identity, inverse, matmul, rank, solve,
                                transpose)
from btbuildings.verify import random_element

Q2 = PAdicModel.get(2)
Q3 = PAdicModel.get(3)
F2T = LaurentModel.get(2)
F3T = LaurentModel.get(3)
F4T = LaurentModel.get(4)


def _random_matrix(model, rows, cols, rng):
    return [[random_element(model, rng) for _ in range(cols)] for _ in range(rows)]


def _make_singular(model, mat, rng):
    """Replace one row by a random combination of the others (or by zero)."""
    n = len(mat)
    k = rng.randrange(n)
    row = [model.zero()] * len(mat[0])
    for i in range(n):
        if i != k and rng.randrange(2):
            c = random_element(model, rng)
            row = [a + c * b for a, b in zip(row, mat[i])]
    mat[k] = row
    return mat


def _rat(x):
    return sympy.Rational(x.raw.numerator, x.raw.denominator)


def _sym(mat):
    return sympy.Matrix([[_rat(x) for x in row] for row in mat])


@pytest.mark.parametrize("model", [Q2, Q3])
def test_padic_against_sympy(model):
    rng = random.Random(1703)
    singular = 0
    for _ in range(60):
        n = rng.randrange(1, 5)
        mat = _random_matrix(model, n, n, rng)
        if rng.randrange(3) == 0:
            mat = _make_singular(model, mat, rng)
        ref = _sym(mat)
        assert _rat(det(model, mat)) == ref.det()
        assert rank(model, mat) == ref.rank()
        if ref.det() == 0:
            singular += 1
            with pytest.raises(ValueError):
                inverse(model, mat)
        else:
            assert _sym(inverse(model, mat)) == ref.inv()
    assert singular >= 5


def test_padic_rank_of_rectangular_matrices():
    rng = random.Random(59)
    for _ in range(30):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = _random_matrix(Q2, rows, cols, rng)
        if rows > 1 and rng.randrange(2):
            mat = _make_singular(Q2, mat, rng)
        assert rank(Q2, mat) == _sym(mat).rank()


@pytest.mark.parametrize("model", [F2T, F3T, F4T])
def test_laurent_inverse_det_and_solve(model):
    rng = random.Random(2017)
    for _ in range(15):
        n = rng.randrange(1, 4)
        a = _random_matrix(model, n, n, rng)
        b = _random_matrix(model, n, n, rng)
        assert det(model, matmul(model, a, b)) == det(model, a) * det(model, b)
        if det(model, a):
            assert matmul(model, a, inverse(model, a)) == identity(model, n)
            assert rank(model, a) == n
            # several right-hand sides in one elimination
            assert solve(model, a, transpose(b)) == \
                transpose(matmul(model, inverse(model, a), b))
        s = _make_singular(model, [row[:] for row in a], rng)
        assert not det(model, s)
        assert rank(model, s) < n
        with pytest.raises(ValueError):
            solve(model, s, [[model.one()] * n])
