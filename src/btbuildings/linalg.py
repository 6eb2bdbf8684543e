"""Exact linear algebra over a field model: one Gauss-Jordan elimination.

A matrix is a list of rows of FieldElements of one model.  Every answer is
exact, so it does not depend on the pivots chosen.  This module imports no
other btbuildings module: the model supplies zero() and one(), and the
elements supply +, -, *, / and truth (nonzero).
"""


def _eliminate(model, rows, width):
    """Gauss-Jordan elimination of (copies of) `rows` on their first `width`
    columns; later columns ride along.  Returns the reduced rows, the pivot
    columns, and the product of the pivots signed by the row swaps (the
    determinant when the rows are square and of full rank)."""
    rows = [list(r) for r in rows]
    pivots = []
    scale = model.one()
    for col in range(width):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            scale = -scale
        lead = rows[top][col]
        scale = scale * lead
        inv = model.one() / lead
        prow = rows[top] = [x * inv for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[col]:
                f = row[col]
                rows[r] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(col)
    return rows, pivots, scale


def solve(model, mat, rhs_cols):
    """The columns y with mat * y = b, one per column b in rhs_cols, from a
    single elimination of the square matrix mat; ValueError if singular."""
    n = len(mat)
    aug = [list(row) + [b[i] for b in rhs_cols] for i, row in enumerate(mat)]
    rows, pivots, _ = _eliminate(model, aug, n)
    if len(pivots) < n:
        raise ValueError("singular system")
    return [[rows[i][n + k] for i in range(n)] for k in range(len(rhs_cols))]


def inverse(model, mat):
    return transpose(solve(model, mat, identity(model, len(mat))))


def det(model, mat):
    n = len(mat)
    _, pivots, scale = _eliminate(model, mat, n)
    return scale if len(pivots) == n else model.zero()


def rank(model, rows):
    return len(_eliminate(model, rows, len(rows[0]))[1])


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def identity(model, n):
    one, zero = model.one(), model.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(model, a, b):
    zero = model.zero()
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out
