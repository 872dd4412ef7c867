"""Shared fixtures-in-spirit for the test suite: catalog shortcuts and the
frozen example tensors the tests reuse."""

from fractions import Fraction
from itertools import product

from ybekit import (
    LinearMap,
    SingularMatrix,
    Tensor2,
    YbeInstance,
    embed,
    exact,
    nhacybe_residual,
    t2_from_entries,
    triple_mul,
)
from ybekit.algebras import make_algebra
from ybekit.catalog import catalog_algebra

ALL_NAMES = ("A1", "A2", "B1", "B2", "B3", "B4", "B5", "M2")

# A nonzero skew solution of the mu=0 equation on the 2x2 matrix algebra,
# found by exhaustive search over skew tensors with entries in {-1, 0, 1}:
# E12 (x) E11 - E11 (x) E12.
M2_SKEW = Tensor2(4, ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


def entry(name):
    return catalog_algebra(name)


def alg(name):
    return catalog_algebra(name).algebra


def inst(name, mu):
    return YbeInstance(alg(name), mu)


def a2_solution(idx, mu=1):
    return catalog_algebra("A2").families[idx - 1].tensor(mu)


def basis_tensor(name, i, j):
    a = alg(name)
    return t2_from_entries(a.dim, {(i, j): 1})


def zero_map(rows, cols=None, domain="primal"):
    cols = rows if cols is None else cols
    return LinearMap(tuple((0,) * cols for _ in range(rows)), domain)


def _embedded(t, a):
    return tuple(embed(t, s, a) for s in (12, 13, 23))


def slotwise_residual(i, t):
    """The residual by its definition: embed r in three slot pairs and
    multiply in the triple tensor algebra."""
    a = i.algebra
    t12, t13, t23 = _embedded(t, a)
    return (triple_mul(t12, t13, a)
            .add(triple_mul(t13, t23, a))
            .sub(triple_mul(t23, t12, a))
            .sub(t13.scale(i.mu)))


def slotwise_opposite_residual(i, t):
    """r13 r12 + r23 r13 - r12 r23 - mu r13 by its definition."""
    a = i.algebra
    t12, t13, t23 = _embedded(t, a)
    return (triple_mul(t13, t12, a)
            .add(triple_mul(t23, t13, a))
            .sub(triple_mul(t12, t23, a))
            .sub(t13.scale(i.mu)))


def slotwise_pair_residuals(a, r, s):
    """r12 r13 - r23 r12 + r13 s23 and r12 s13 - s23 s12 + s13 s23 by
    their definitions."""
    r12, r13, r23 = _embedded(r, a)
    s12, s13, s23 = _embedded(s, a)
    return (triple_mul(r12, r13, a).sub(triple_mul(r23, r12, a)).add(triple_mul(r13, s23, a)),
            triple_mul(r12, s13, a).sub(triple_mul(s23, s12, a)).add(triple_mul(s13, s23, a)))


def brute_force_grid(i, values):
    """Reference for grid_enumerate: every grid tensor in row-major
    lexicographic order, kept when its residual vanishes."""
    n = i.algebra.dim
    out = []
    for combo in product(sorted(set(values)), repeat=n * n):
        t = Tensor2(n, tuple(tuple(combo[k * n:(k + 1) * n]) for k in range(n)))
        if nhacybe_residual(i, t).is_zero():
            out.append(t)
    return out


# Reference linear algebra: Fraction Gauss-Jordan elimination, as linalg did
# it before elimination moved to integer rows.

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


def reference_rank(m):
    if not m:
        return 0
    _, pivots = _echelon([[Fraction(x) for x in row] for row in m])
    return len(pivots)


def reference_kernel_basis(m):
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _echelon([[Fraction(x) for x in row] for row in m])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = exact(-rows[ri][fc])
        basis.append(tuple(v))
    return basis


def reference_invert(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    rows, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return tuple(tuple(exact(x) for x in row[n:]) for row in rows)


def reference_in_span(basis, v):
    if all(x == 0 for x in v):
        return True
    return reference_rank(tuple(basis)) == reference_rank(tuple(basis) + (tuple(v),))


def typed(vectors):
    """Entries with their types, so that 1 and Fraction(1) differ."""
    return [tuple((type(x), x) for x in v) for v in vectors]


def rebased(a, p):
    """The algebra a on the basis f_i = sum_x p[i][x] e_x."""
    n = a.dim
    q = reference_invert(p)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, x, y, c in product(range(n), repeat=5):
        coef = p[i][x] * p[j][y] * a.sc[x][y][c]
        if coef:
            for d in range(n):
                sc[i][j][d] += coef * q[c][d]
    unit = None if a.unit is None else [sum(a.unit[c] * q[c][d] for c in range(n))
                                        for d in range(n)]
    return make_algebra(n, sc, unit=unit)


def reference_invariant_symmetric_basis(a):
    """The n^3 x n^2 invariance system plus the n(n-1)/2 antisymmetry rows,
    solved by the reference elimination."""
    n = a.dim
    rows = []
    for k in range(n):
        ek = tuple(1 if i == k else 0 for i in range(n))
        lk = a.left_matrix(ek)
        rk = a.right_matrix(ek)
        for p in range(n):
            for q in range(n):
                row = [0] * (n * n)
                for j in range(n):
                    row[p * n + j] += lk[q][j]
                for i in range(n):
                    row[i * n + q] -= rk[p][i]
                rows.append(tuple(row))
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * (n * n)
            row[i * n + j] = 1
            row[j * n + i] = -1
            rows.append(tuple(row))
    basis = reference_kernel_basis(tuple(rows))
    return [Tensor2(n, tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)))
            for v in basis]
