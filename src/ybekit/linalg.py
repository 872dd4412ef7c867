"""Exact dense linear algebra over the rationals.

Scalars are Python ints or fractions.Fraction.  Integer inputs stay integers
through +,-,* so the hot paths avoid Fraction overhead.  The one elimination
routine, `_echelon`, works on integer rows only: each input row is cleared of
denominators first, and elimination cross-multiplies instead of dividing.
A division happens only when `rank`, `kernel_basis`, `invert` or `in_span`
forms an entry of its result.  Nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, SingularMatrix

Scalar = int | Fraction
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]

HALF = Fraction(1, 2)


def exact(x) -> Scalar:
    """Coerce a number (or 'p/q' string) to an exact scalar.  A float is
    refused: its binary fraction is almost never the number that was meant."""
    t = type(x)
    if t is int or t is Fraction and x.denominator != 1:
        return x
    if isinstance(x, float):
        raise ValueError(f"scalar: expected int, got {t.__name__}")
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


def _integer_rows(m) -> list[list[int]]:
    """The rows of m, each scaled by the lcm of its denominators and divided
    by the gcd of its entries: primitive integer rows with the same span."""
    out = []
    for row in m:
        dens = [x.denominator for x in row if type(x) is not int]
        d = lcm(*dens)
        out.append(_primitive([int(x * d) for x in row] if dens else list(row)))
    return out


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _cancel(row: list[int], prow: list[int], c: int) -> list[int]:
    """row minus a multiple of prow that clears column c (prow[c] != 0),
    scaled by an integer to stay integral and then made primitive."""
    p, a = prow[c], row[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    return _primitive([p * x - a * y for x, y in zip(row, prow)])


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of integer rows in place, without division.

    Returns (rows, pivots).  Row i < len(pivots) has its pivot in column
    pivots[i] and a zero in every other pivot column; the rows after those
    are zero.  Every row is kept primitive (its entries have gcd 1), so
    cross-multiplying does not make the entries grow step after step.  Row i
    divided by rows[i][pivots[i]] is row i of the reduced row echelon form
    over the rationals.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = _cancel(rows[i], prow, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _ratio(a: int, b: int) -> Scalar:
    q, rem = divmod(a, b)
    return Fraction(a, b) if rem else q


def rank(m: Mat) -> int:
    return len(_echelon(_integer_rows(m))[1])


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the null space of m; empty iff m is injective."""
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _echelon(_integer_rows(m))
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v: list[Scalar] = [0] * ncols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = _ratio(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


def invert(m: Mat) -> Mat:
    """Exact inverse of a square matrix."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("invert requires a square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = _echelon(_integer_rows(aug))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return tuple(tuple(_ratio(x, row[i]) for x in row[n:]) for i, row in enumerate(rows))


def in_span(basis: list[Vec], v: Vec) -> bool:
    """Whether v lies in the span of the given vectors."""
    if is_zero_vec(v):
        return True
    rows, pivots = _echelon(_integer_rows(basis))
    (w,) = _integer_rows((v,))
    for prow, pc in zip(rows, pivots):
        if w[pc]:
            w = _cancel(w, prow, pc)
    return not any(w)
