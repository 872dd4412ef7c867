"""Exact dense linear algebra over the rationals.

Scalars are Python ints or fractions.Fraction.  Integer inputs stay integers
through +,-,* so the hot paths avoid Fraction overhead; division only happens
inside the elimination routines, which promote to Fraction first.  Nothing
here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SingularMatrix

Scalar = int | Fraction
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]

HALF = Fraction(1, 2)


def exact(x) -> Scalar:
    """Coerce a number (or 'p/q' string) to an exact scalar."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def scalar_str(x: Scalar) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def vec(xs) -> Vec:
    return tuple(exact(x) for x in xs)


def mat(rows) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


def zero_vec(n: int) -> Vec:
    return (0,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def zero_mat(rows: int, cols: int) -> Mat:
    return ((0,) * cols,) * rows


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Scalar, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vec_dot(u: Vec, v: Vec) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(vec_add(r, s) for r, s in zip(a, b, strict=True))


def mat_scale(c: Scalar, a: Mat) -> Mat:
    return tuple(vec_scale(c, r) for r in a)


def is_zero_mat(a: Mat) -> bool:
    return all(is_zero_vec(r) for r in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else a


def mat_vec(a: Mat, v: Vec) -> Vec:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch(f"matrix cols {len(a[0])} != vector len {len(v)}")
    out = []
    for row in a:
        acc = 0
        for c, x in zip(row, v):
            if c and x:
                acc += c * x
        out.append(acc)
    return tuple(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"inner dims {len(a[0])} != {len(b)}")
    bt = transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Mat) -> int:
    if not m:
        return 0
    _, pivots = _echelon([[Fraction(x) for x in row] for row in m])
    return len(pivots)


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the null space of m; empty iff m is injective."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _echelon([[Fraction(x) for x in row] for row in m])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v: list[Scalar] = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = exact(-rows[ri][fc])
        basis.append(tuple(v))
    return basis


def invert(m: Mat) -> Mat:
    """Exact inverse of a square matrix."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("invert requires a square matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    rows, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return tuple(tuple(exact(x) for x in row[n:]) for row in rows)


def in_span(basis: list[Vec], v: Vec) -> bool:
    """Whether v lies in the span of the given vectors."""
    if is_zero_vec(v):
        return True
    stacked = list(basis)
    return rank(tuple(stacked)) == rank(tuple(stacked + [v]))
