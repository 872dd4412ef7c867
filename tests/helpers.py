"""Shared fixtures-in-spirit for the test suite: catalog shortcuts, the
frozen example tensors the tests reuse, and the slow references that the
fast paths are compared against.  Each identity has one reference, written
from its definition and running no kernel of the library: the residuals
(`slotwise_*`), the operator identities as per-pair loops, invariance as
dense matrix products, the extended symmetrizer, and the suites and the
catalog check as compositions of those.  The search references do run one:
`brute_force_grid` judges each grid tensor by the library's residual, and
`reference_verify_grid` searches with `grid_enumerate`."""

import os
import random
import sys
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, product
from math import lcm

from ybekit import (
    Algebra,
    BilinearForm,
    BimoduleAlgebra,
    Degenerate,
    DimensionMismatch,
    LinearMap,
    NotAssociative,
    NotInvariant,
    NotSymmetric,
    PreconditionViolated,
    SemidirectSolutions,
    SingularMatrix,
    Tensor2,
    WeightOp,
    YbeError,
    YbeInstance,
    adjoint_bimodule,
    dual_regular_bimodule,
    exact,
    extract_rb_pair,
    grid_enumerate,
    hom_tensor,
    invert,
    lift_o_operator,
    nhacybe_residual,
    residual_is_zero,
    t2_zero,
    tensor_from_dual_product,
    unit_square,
)
from ybekit.algebras import (
    Augmentation,
    Bimodule,
    apply_table,
    check_algebra,
    dual_bimodule,
    find_augmentations,
    is_unital_bimodule,
    make_algebra,
    semidirect_product,
)
from ybekit.catalog import _verify_inv, _verify_structure, catalog_algebra
from ybekit.linalg import (
    Frozen,
    is_zero_vec,
    kernel_basis,
    mat_mul,
    mat_vec,
    scalar_str,
    transpose,
    unit_vec,
    vec_dot,
    zero_vec,
)
from ybekit.operators import _suite_report
from ybekit.poly import Poly
from ybekit.report import CheckReport, combine, dumps
from ybekit.tensors import Tensor3

HALF = Fraction(1, 2)

# Seeded random generators for the property suites.  Coefficients are drawn
# uniformly from {-2, -1, 0, 1, 2} so products stay in small-integer
# arithmetic; every battery records its seed.

COEFF_RANGE = (-2, -1, 0, 1, 2)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_tensor(r: random.Random, n: int) -> Tensor2:
    return Tensor2(n, tuple(tuple(r.choice(COEFF_RANGE) for _ in range(n))
                            for _ in range(n)))


def random_skew(r: random.Random, n: int) -> Tensor2:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = r.choice(COEFF_RANGE)
            rows[i][j] = c
            rows[j][i] = -c
    return Tensor2(n, tuple(tuple(row) for row in rows))


def random_matrix(r: random.Random, rows: int, cols: int):
    return tuple(tuple(r.choice(COEFF_RANGE) for _ in range(cols))
                 for _ in range(rows))


def random_symmetrized_invariant(r: random.Random, inst: YbeInstance,
                                 inv_basis: list[Tensor2]) -> Tensor2:
    """A tensor whose extended symmetrizer is a random element of the
    invariant space: skew + (s + mu * unit_square) / 2."""
    n = inst.algebra.dim
    out = random_skew(r, n)
    half_sum = unit_square(inst.algebra).scale(inst.mu) if inst.mu != 0 \
        else Tensor2(n, ((0,) * n,) * n)
    for b in inv_basis:
        c = r.choice(COEFF_RANGE)
        if c:
            half_sum = half_sum.add(b.scale(c))
    return out.add(half_sum.scale(HALF))


def random_unit_symmetrizer(r: random.Random, inst: YbeInstance) -> Tensor2:
    """A tensor with r + flip(r) = mu * unit_square (zero symmetrizer)."""
    return random_symmetrized_invariant(r, inst, [])


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


def zero_map(rows, cols=None, domain="primal"):
    cols = rows if cols is None else cols
    return LinearMap(tuple((0,) * cols for _ in range(rows)), domain)


# The residuals by their definitions.  r is the sum over q of the pure
# tensors R_q (x) e_q, R_q the q-th column of its coefficients; r12, r13 and
# r23 put the unit in the third slot, and A (x) A (x) A multiplies pure
# tensors slot by slot.  The unit is a symbol that acts trivially, so the
# products are those of the unitization and need no unit in the algebra.

def _placed(c, slots):
    """The n x n matrix c in the slot pair 12, 13 or 23, as n pure tensors
    (x1, x2, x3) of coordinate vectors, None standing for the unit."""
    n = len(c)
    for q, col in enumerate(zip(*c)):
        eq = unit_vec(n, q)
        yield {12: (col, eq, None), 13: (col, None, eq), 23: (None, col, eq)}[slots]


def slot_product(a, x, sx, y, sy):
    """x placed in the slot pair sx times y placed in sy, as the flat list of
    coefficients of a tensor in A (x) A (x) A, [p][q][s] at (p n + q) n + s.
    Each slot product u v is read off the left multiplication matrix of u,
    built once per vector."""
    n = a.dim
    out = [0] * n ** 3
    left = cache(a.left_matrix)

    def mul(u, v):  # None is the unit
        return v if u is None else u if v is None else mat_vec(left(u), v)

    ys = list(_placed(y, sy))
    for xt in _placed(x, sx):
        for yt in ys:
            nonzero = ([(k, c) for k, c in enumerate(f) if c] for f in map(mul, xt, yt))
            for (p, c1), (q, c2), (s, c3) in product(*nonzero):
                out[(p * n + q) * n + s] += c1 * c2 * c3
    return out


def _slot_sum(a, terms, mu=0, r=None):
    """The Tensor3 sum of coef * x_sx y_sy over terms (coef, x, sx, y, sy),
    minus mu r13, with the unit of a in the middle slot, when mu is nonzero.
    The products are bilinear, so they are summed over the tensors scaled by
    the lcm d of their denominators and divided by d^2 once."""
    n = a.dim
    tensors = {id(t): t for t in chain.from_iterable((x, y) for _, x, _, y, _ in terms)}
    for t in tensors.values():
        if t.dim != n:
            raise DimensionMismatch(f"tensor dim {t.dim} != algebra dim {n}")
    d = lcm(*(x.denominator for t in tensors.values() for row in t.coeff for x in row
              if type(x) is Fraction))
    scaled = {k: [[int(x * d) for x in row] for row in t.coeff] for k, t in tensors.items()}
    out = [0] * n ** 3
    for coef, x, sx, y, sy in terms:
        for k, v in enumerate(slot_product(a, scaled[id(x)], sx, scaled[id(y)], sy)):
            out[k] += coef * v
    out = [Fraction(v, d * d) if v and d != 1 else v for v in out]
    if mu != 0:
        u = a.require_unit()
        for p, q, s in product(range(n), repeat=3):
            if u[q]:
                out[(p * n + q) * n + s] -= mu * r.coeff[p][s] * u[q]
    return Tensor3(n, tuple(tuple(tuple(out[(p * n + q) * n:(p * n + q + 1) * n])
                                  for q in range(n)) for p in range(n)))


@lru_cache(maxsize=256)  # the suites of one tensor share its residual
def slotwise_residual(i, t):
    """r12 r13 + r13 r23 - r23 r12 - mu r13 by its definition."""
    return _slot_sum(i.algebra, ((1, t, 12, t, 13), (1, t, 13, t, 23), (-1, t, 23, t, 12)),
                     i.mu, t)


def slotwise_opposite_residual(i, t):
    """r13 r12 + r23 r13 - r12 r23 - mu r13 by its definition: the residual
    over the opposite algebra."""
    return _slot_sum(i.algebra, ((1, t, 13, t, 12), (1, t, 23, t, 13), (-1, t, 12, t, 23)),
                     i.mu, t)


def slotwise_pair_residuals(a, r, s):
    """r12 r13 - r23 r12 + r13 s23 and r12 s13 - s23 s12 + s13 s23 by
    their definitions."""
    return (_slot_sum(a, ((1, r, 12, r, 13), (-1, r, 23, r, 12), (1, r, 13, s, 23))),
            _slot_sum(a, ((1, r, 12, s, 13), (-1, s, 23, s, 12), (1, s, 13, s, 23))))


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


# The quadratic form grid_enumerate searched before it was compiled from the
# residual kernel run over polynomials, kept as the reference for that
# compilation.

def reference_residual_form(inst: YbeInstance) -> list[tuple]:
    """The residual of `nhacybe_residual` as a sparse quadratic form.

    Entry r[a][b] is variable a * n + b.  Each component (p, q, s) whose
    terms do not all cancel becomes ((p, q, s), quad, lin): quad holds
    (coef, u, v) with u <= v for coef * x_u * x_v, lin holds (coef, u) for
    coef * x_u.  Only the nonzero structure constants are visited.
    """
    a, mu = inst.algebra, inst.mu
    n = a.dim
    quad: dict = {}
    lin: dict = {}

    def add(table, comp, key, c):
        terms = table.setdefault(comp, {})
        terms[key] = terms.get(key, 0) + c

    for i, k, p, c in ((i, k, p, c) for i, row in enumerate(a.sc) for k, v in enumerate(row)
                       for p, c in enumerate(v) if c):  # e_i e_k has c at e_p
        for q in range(n):
            for s in range(n):
                # r12 r13: (e_i e_k) (x) e_q (x) e_s
                add(quad, (p, q, s), tuple(sorted((i * n + q, k * n + s))), c)
                # r13 r23: e_q (x) e_s (x) (e_i e_k)
                add(quad, (q, s, p), tuple(sorted((q * n + i, s * n + k))), c)
                # r23 r12, subtracted: e_q (x) (e_i e_k) (x) e_s
                add(quad, (q, p, s), tuple(sorted((q * n + k, i * n + s))), -c)
    if mu != 0:
        for q, uq in enumerate(a.require_unit()):
            if uq:
                for p in range(n):
                    for s in range(n):
                        add(lin, (p, q, s), p * n + s, -mu * uq)
    form = []
    for comp in sorted(set(quad) | set(lin)):
        qt = tuple((c, u, v) for (u, v), c in sorted(quad.get(comp, {}).items()) if c)
        lt = tuple((c, u) for u, c in sorted(lin.get(comp, {}).items()) if c)
        if qt or lt:
            form.append((comp, qt, lt))
    return form


def evaluate(f, x):
    """A polynomial of ybekit.poly (or a plain number) at the point x."""
    if not isinstance(f, Poly):
        return f
    total = 0
    for m, c in f.items():
        for v in m:
            c *= x[v]
        total += c
    return total


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
        prow = rows[r] = [x / pv if x else x for x in rows[r]]
        support = [k for k, y in enumerate(prow) if y]  # a zero entry changes nothing
        for i in range(nrows):
            row = rows[i]
            if i != r and row[c] != 0:
                f = row[c]
                for k in support:
                    row[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _fractions(m):
    """The rows of m as lists of Fractions, zeros kept as the int 0."""
    return [[Fraction(x) if x else 0 for x in row] for row in m]


def reference_rank(m):
    if not m:
        return 0
    _, pivots = _echelon(_fractions(m))
    return len(pivots)


def reference_kernel_basis(m):
    if not m:
        return []
    ncols = len(m[0])
    rows, pivots = _echelon(_fractions(m))
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


def typed_tree(x):
    """x with the type of every scalar in it, value classes field by field,
    so that 1 and Fraction(1) differ."""
    if isinstance(x, Frozen):
        return type(x).__name__, tuple(typed_tree(getattr(x, f)) for f in x._fields)
    if isinstance(x, (tuple, list)):
        return tuple(typed_tree(y) for y in x)
    return type(x), x


def outcome(f, *args):
    """typed_tree of what f(*args) returns, or the type, message and witness
    of the library error it raises."""
    try:
        return typed_tree(f(*args))
    except YbeError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


# Rational changes of basis for `rebased`: f_i = sum_x P[i][x] e_x.
BASES = {
    "A2": ((1, Fraction(1, 2)), (Fraction(-1, 3), 1)),
    "B1": ((1, Fraction(1, 2), 0), (0, 1, Fraction(-2, 3)), (Fraction(1, 5), 0, 1)),
    "M2": ((1, 0, Fraction(1, 2), 0), (0, 1, 0, 0), (0, Fraction(-1, 3), 1, 0),
           (Fraction(1, 2), 0, 0, 2)),
}


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


_REBASED = {}


def rebased_entry(name):
    """The catalog algebra `name` on the basis BASES[name], with each family
    tensor and form carried over to that basis."""
    if name not in _REBASED:
        e = entry(name)
        p = BASES[name]
        q = reference_invert(p)
        n = len(p)
        a = rebased(e.algebra, p)

        def carry(coeff):  # coefficients in the e basis -> in the f basis
            return tuple(tuple(sum(q[x][d] * coeff[x][y] * q[y][dd]
                                   for x in range(n) for y in range(n))
                               for dd in range(n)) for d in range(n))

        forms = [BilinearForm(a, tuple(tuple(
            sum(p[i][x] * f.form.gram[x][y] * p[j][y] for x in range(n) for y in range(n))
            for j in range(n)) for i in range(n))) for f in e.forms.values()]
        _REBASED[name] = (a, carry, [f.tensor for f in e.families[:3]], forms)
    return _REBASED[name]


def _invariance_rows(a, unknown, width, ks=None):
    """One row per (k, p, q) in row-major order, k over ks or every basis
    index: entry (p, q) of the defect s L(e_k)^T - R(e_k) s, in the unknowns
    unknown[i][j] of the entries of s."""
    n = a.dim
    for k in range(n) if ks is None else ks:
        lk, rk = a.left_matrix(unit_vec(n, k)), a.right_matrix(unit_vec(n, k))
        for p, q in product(range(n), repeat=2):
            row = [0] * width
            for j in range(n):
                row[unknown[p][j]] += lk[q][j]
            for i in range(n):
                row[unknown[i][q]] -= rk[p][i]
            yield tuple(row)


def reference_invariant_symmetric_basis(a):
    """The n^3 x n^2 invariance system plus the n(n-1)/2 antisymmetry rows,
    solved by the reference elimination."""
    n = a.dim
    rows = list(_invariance_rows(a, [[i * n + j for j in range(n)] for i in range(n)], n * n))
    for i in range(n):
        for j in range(i + 1, n):
            rows.append(tuple(int(c == i * n + j) - int(c == j * n + i) for c in range(n * n)))
    # Zero and repeated rows change no kernel; dropped, they cost no elimination.
    kept = tuple(dict.fromkeys(r for r in rows if any(r))) or ((0,) * (n * n),)
    return [Tensor2(n, tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)))
            for v in reference_kernel_basis(kept)]


def invariance_defect(a, s, k):
    """Defect of s under the k-th basis vector: s @ L(e_k)^T - R(e_k) @ s."""
    lk = a.left_matrix(unit_vec(a.dim, k))
    rk = a.right_matrix(unit_vec(a.dim, k))
    left_piece = mat_mul(s.coeff, transpose(lk))
    right_piece = mat_mul(rk, s.coeff)
    return Tensor2(a.dim, tuple(
        tuple(x - y for x, y in zip(r1, r2))
        for r1, r2 in zip(left_piece, right_piece)))


def reference_is_invariant(a, s):
    """is_invariant as a loop over `invariance_defect`, one dense Fraction
    matrix product per basis vector."""
    if s.dim != a.dim:
        raise DimensionMismatch("tensor dim does not match algebra dim")
    for k in range(a.dim):
        d = invariance_defect(a, s, k)
        if not d.is_zero():
            return CheckReport(
                "invariant-tensor", False,
                witness={"basis_index": k,
                         "defect": [[scalar_str(x) for x in row] for row in d.coeff]})
    return CheckReport("invariant-tensor", True)


def dense_invariant_rows(a, ks=None):
    """The invariance system of invariant_symmetric_basis, of the blocks ks
    or of all, one unknown per entry s[i][j] = s[j][i] at i(i+1)/2 + j for
    i >= j, with zero and repeated rows dropped."""
    n = a.dim
    unknown = [[max(i, j) * (max(i, j) + 1) // 2 + min(i, j) for j in range(n)] for i in range(n)]
    return list(dict.fromkeys(r for r in _invariance_rows(a, unknown, n * (n + 1) // 2, ks)
                              if any(r)))


def reference_kept_blocks(a):
    """The basis indices p such that no product sc[i][j] with i, j < p is a
    nonzero multiple of e_p, read off the dense structure constants."""
    n = a.dim
    return [p for p in range(n)
            if not any(v[p] and sum(map(bool, v)) == 1
                       for i in range(p) for v in a.sc[i][:p])]


def reference_products(a):
    """Algebra._products as the dense scan of every structure constant."""
    d = lcm(*(c.denominator for row in a.sc for v in row for c in v if type(c) is Fraction))
    return d, [(i, k, p, int(c * d)) for i, row in enumerate(a.sc)
               for k, v in enumerate(row) for p, c in enumerate(v) if c]


def reference_extended_symmetrizer(inst, r):
    """r + flip(r) - mu (1 (x) 1) entry by entry in Fraction arithmetic."""
    c, n, mu = r.coeff, r.dim, inst.mu
    if n != inst.algebra.dim:
        raise DimensionMismatch(f"tensor dim {n} != algebra dim {inst.algebra.dim}")
    u = inst.algebra.require_unit() if mu != 0 else (0,) * n
    return Tensor2(n, tuple(tuple(c[i][j] + c[j][i] - mu * (u[i] * u[j]) for j in range(n))
                            for i in range(n)))


# Reference operator identities: per-pair loops over the dense left
# multiplication matrices and bimodule actions, each written from its
# identity.  A matrix that depends on one index of the pair is built when a
# pair first needs it, and a verdict stops at the first nonzero defect.

def _all_zero(m, d):
    """Whether d(i, j) is the zero vector on every pair, up to the first that is not."""
    return all(is_zero_vec(d(i, j)) for i in range(m) for j in range(m))


def _table(m, d):
    return tuple(tuple(d(i, j) for j in range(m)) for i in range(m))


def _weight(w, v, m):
    """weight(e_i, e_j) as a function of (i, j) for the WeightOp w on the module v."""
    if w.kind == "zero" or w.kind == "scalar" and w.lam == 0:
        return lambda i, j: zero_vec(m)
    if w.kind == "scalar":
        return lambda i, j: tuple(w.lam * x for x in w.table[i][j])
    if w.kind in ("right_twist", "left_twist"):  # e_i . T(e_j) or T(e_i) . e_j
        right = w.kind == "right_twist"
        act = cache(lambda k: transpose((v.rmat if right else v.lmat)(
            mat_vec(w.twist, unit_vec(m, k)))))
        return (lambda i, j: act(j)[i]) if right else (lambda i, j: act(i)[j])
    raise DimensionMismatch(f"unknown weight kind {w.kind}")


def _o_operator_defect(a, v, alpha, weight):
    """(m, defect): defect(i, j) is alpha(e_i)alpha(e_j) - alpha(alpha(e_i).e_j
    + e_i.alpha(e_j) + weight(e_i, e_j)) on the module basis."""
    m = v.dim
    am = alpha.matrix
    if len(am) != a.dim or (am and len(am[0]) != m):
        raise DimensionMismatch("operator shape does not match module -> algebra")
    cols = transpose(am) if am else (zero_vec(a.dim),) * m
    mul = cache(lambda i: a.left_matrix(cols[i]))
    left = cache(lambda i: transpose(v.lmat(cols[i])))  # column j: alpha(e_i).e_j
    right = cache(lambda j: transpose(v.rmat(cols[j])))  # column i: e_i.alpha(e_j)
    w = _weight(weight, v, m)

    def defect(i, j):
        module = [x + y + z for x, y, z in zip(left(i)[j], right(j)[i], w(i, j))]
        return tuple(x - y for x, y in zip(mat_vec(mul(i), cols[j]), mat_vec(am, module)))
    return m, defect


def reference_o_operator_residual(a, v, alpha, weight):
    return _table(*_o_operator_defect(a, v, alpha, weight))


def _rota_baxter_defect(a, p, lam):
    """(n, defect): defect(i, j) is P(e_i)P(e_j) - P(P(e_i)e_j + e_iP(e_j)
    + lam e_ie_j)."""
    n = a.dim
    pm = p.matrix
    if len(pm) != n or len(pm[0]) != n:
        raise DimensionMismatch("operator is not an endomorphism of the algebra")
    cols = transpose(pm)
    mul = cache(lambda i: a.left_matrix(cols[i]))
    basis = cache(lambda i: a.left_matrix(unit_vec(n, i)))

    def defect(i, j):
        inner = [x + y + lam * z for x, y, z in zip(
            mat_vec(mul(i), unit_vec(n, j)), mat_vec(basis(i), cols[j]), a.sc[i][j])]
        return tuple(x - y for x, y in zip(mat_vec(mul(i), cols[j]), mat_vec(pm, inner)))
    return n, defect


def reference_rota_baxter_residual(a, p, lam):
    return _table(*_rota_baxter_defect(a, p, lam))


def reference_rb_system_residual(a, p, s):
    """P(e_i)P(e_j) - P(P(e_i)e_j + e_iS(e_j)) and S(e_i)S(e_j) - S(P(e_i)e_j
    + e_iS(e_j)) on every pair."""
    n = a.dim
    pm, sm = p.matrix, s.matrix
    pc, sc_ = transpose(pm), transpose(sm)

    def mixed(i, j):
        return tuple(x + y for x, y in zip(a.mul(pc[i], unit_vec(n, j)),
                                           a.mul(unit_vec(n, i), sc_[j])))
    return tuple(_table(n, lambda i, j: tuple(
        x - y for x, y in zip(a.mul(c[i], c[j]), mat_vec(m, mixed(i, j)))))
        for c, m in ((pc, pm), (sc_, sm)))


def reference_pair_identity_residual(a, aug, r, mu):
    """P(e_i)P(e_j) + P(e_iP'(e_j)) - P(P(e_i)e_j) - mu eps(e_j) P(e_i) for
    the pair (P, P') read off a unitization."""
    n = a.dim
    p, pp = extract_rb_pair(a, aug, r)
    pm = p.matrix
    pcols, ppcols = transpose(pm), transpose(pp.matrix)

    def defect(i, j):
        t0 = a.mul(pcols[i], pcols[j])
        t1 = mat_vec(pm, a.mul(unit_vec(n, i), ppcols[j]))
        t2 = mat_vec(pm, a.mul(pcols[i], unit_vec(n, j)))
        return tuple(t0[k] + t1[k] - t2[k] - mu * aug.eps[j] * pcols[i][k] for k in range(n))
    return _table(n, defect)


def reference_defect_table(a, v, p, q, s, eps=None, weight=None, opposite=False):
    """The table of `operators._defect_blocks` per pair, from its docstring:
    D[i][j] = p(e_i)p(e_j) - p(q(e_i).e_j + e_i.s(e_j) + eps[j] e_i
    + weight[i][j]) for maps p, q, s from the module v given by their
    columns, and weight (dw, flat) read as flat[(i m + j) m + c] / dw.  With
    opposite, the product is that of the opposite algebra and the actions
    are exchanged.  D is homogeneous of degree 2 in (p, q, s, eps, weight),
    so it is summed over all of them cleared of denominators and divided
    once."""
    m = len(p)
    dw, flat = weight or (1, [0] * m ** 3)
    eps = eps or (0,) * m
    d = lcm(dw, *(x.denominator for x in chain(*p, *q, *s, eps) if type(x) is Fraction))
    p, q, s = ([[int(x * d) for x in row] for row in mx] for mx in (p, q, s))
    flat, eps = [x * (d // dw) for x in flat], [int(x * d) for x in eps]
    mul = cache(lambda i: (a.right_matrix if opposite else a.left_matrix)(p[i]))
    lmat, rmat = (v.rmat, v.lmat) if opposite else (v.lmat, v.rmat)
    left = cache(lambda i: transpose(lmat(q[i])))  # column j: q(e_i).e_j
    right = cache(lambda j: transpose(rmat(s[j])))  # column i: e_i.s(e_j)
    image = transpose(p)  # the module element, mapped by p

    def defect(i, j):
        at = (i * m + j) * m
        w = [x + y + z for x, y, z in zip(flat[at:at + m], left(i)[j], right(j)[i])]
        w[i] += eps[j]
        return tuple(Fraction(x - y, d * d) if d != 1 else x - y
                     for x, y in zip(mat_vec(mul(i), p[j]), mat_vec(image, w)))
    return _table(m, defect)


def reference_dual_product(a, s):
    """The product on the dual space read off the tensor s: entry [j][i][k]
    is coordinate j of s#(e_i*) e_k, where s#(e_i*) is row i of s."""
    n = a.dim
    prods = [[a.mul(s.coeff[i], unit_vec(n, k)) for k in range(n)] for i in range(n)]
    return tuple(tuple(tuple(exact(prods[i][k][j]) for k in range(n)) for i in range(n))
                 for j in range(n))


def reference_dual_regular(a):
    """The dual of the adjoint bimodule built from the dense action tables."""
    return dual_bimodule(Bimodule(a, a.dim, *eager_action_tables(a)))


def reference_operator_form_suite(inst, r):
    """The five verdicts of `operator_form_suite`: the residual, the two
    dual-basis identities as per-pair loops, and the two twisted O-operator
    identities of r# and r^t# on the dual regular bimodule."""
    a, mu = inst.algebra, inst.mu
    n = a.dim
    sbar = reference_extended_symmetrizer(inst, r)
    u = a.require_unit() if mu != 0 else zero_vec(n)
    rs, rt = transpose(r.coeff), r.coeff  # r# and r^t#
    rs_cols, rt_cols = rt, rs  # the columns of each are the rows of the other
    neg_sb = tuple(tuple(-x for x in row) for row in transpose(sbar.coeff))
    # e_i* right-acted by y is row i of the left multiplication matrix of y,
    # e_j* left-acted by y row j of its right multiplication matrix.
    ls, lt = cache(lambda i: a.left_matrix(rs_cols[i])), cache(lambda i: a.left_matrix(rt_cols[i]))
    rs_right = cache(lambda i: a.right_matrix(rs_cols[i]))

    def first(i, j):
        ai = rs_cols[i]
        t0 = mat_vec(ls(i), rs_cols[j])
        t1 = mat_vec(rs, lt(j)[i])
        t2 = mat_vec(rs, rs_right(i)[j])
        return tuple(t0[k] + t1[k] - t2[k] - mu * u[j] * ai[k] for k in range(n))

    def second(i, j):
        bj = rt_cols[j]
        t0 = mat_vec(lt(i), bj)
        t1 = mat_vec(rt, lt(j)[i])
        t2 = mat_vec(rt, rs_right(i)[j])
        return tuple(t0[k] - t1[k] + t2[k] - mu * u[i] * bj[k] for k in range(n))

    dualmod = reference_dual_regular(a)
    return _suite_report("operator-form-suite", {
        "tensor_equation": slotwise_residual(inst, r).is_zero(),
        "first_slot_identity": _all_zero(n, first),
        "first_slot_right_twist": _all_zero(*_o_operator_defect(
            a, dualmod, LinearMap(rs, "dual"), WeightOp.right_twist(neg_sb))),
        "second_slot_identity": _all_zero(n, second),
        "second_slot_left_twist": _all_zero(*_o_operator_defect(
            a, dualmod, LinearMap(rt, "dual"), WeightOp.left_twist(neg_sb))),
    })


def reference_invariant_operator_suite(inst, r):
    """The verdicts of `invariant_operator_suite`: with an invariant
    symmetrizer, r# and r^t# as O-operators of weight zero, or of weight -1
    against the dual product of the symmetrizer."""
    a = inst.algebra
    sbar = reference_extended_symmetrizer(inst, r)
    inv = reference_is_invariant(a, sbar)
    if not inv.passed:
        raise PreconditionViolated("invariant-symmetrizer", witness=inv.witness)
    if sbar.is_zero():
        weight, branch = WeightOp.zero(), "weight-0"
    else:
        weight, branch = WeightOp.scalar(-1, reference_dual_product(a, sbar)), "weight--1"
    dualmod = reference_dual_regular(a)
    return _suite_report("invariant-operator-suite", {
        "tensor_equation": slotwise_residual(inst, r).is_zero(),
        "first_slot_operator": _all_zero(*_o_operator_defect(
            a, dualmod, LinearMap(transpose(r.coeff), "dual"), weight)),
        "second_slot_operator": _all_zero(*_o_operator_defect(
            a, dualmod, LinearMap(r.coeff, "dual"), weight)),
    }, branch=branch)


def reference_induced_operators(f, r):
    """`induced_operators` as two dense `linalg.mat_mul` products."""
    lower = transpose(f.form.gram)
    return (LinearMap(mat_mul(transpose(r.coeff), lower)),
            LinearMap(mat_mul(r.coeff, lower)))


def reference_frobenius_suite(f, mu, r):
    """The five verdicts of `frobenius_suite`: the residual, the pair
    identities of the induced operators as per-pair loops, and their
    twisted Rota-Baxter identities on the adjoint bimodule."""
    a = f.algebra
    n = a.dim
    u = a.require_unit()
    inst = YbeInstance(a, mu)
    p, pt = reference_induced_operators(f, r)
    pcols, ptcols = transpose(p.matrix), transpose(pt.matrix)
    b_unit = tuple(f.form.value(u, unit_vec(n, j)) for j in range(n))
    lp, lpt = cache(lambda i: a.left_matrix(pcols[i])), cache(lambda i: a.left_matrix(ptcols[i]))
    basis = cache(lambda i: a.left_matrix(unit_vec(n, i)))
    # P(e_i)e_j and e_iP'(e_j), in both identities
    mixed = cache(lambda i, j: (mat_vec(lp(i), unit_vec(n, j)), mat_vec(basis(i), ptcols[j])))

    def pair(i, j):
        x, y = mixed(i, j)
        t0, t1, t2 = mat_vec(lp(i), pcols[j]), p.apply(x), p.apply(y)
        return tuple(t0[k] - t1[k] + t2[k] - mu * b_unit[j] * pcols[i][k] for k in range(n))

    def companion(i, j):
        x, y = mixed(i, j)
        s0, s1, s2 = mat_vec(lpt(i), ptcols[j]), pt.apply(x), pt.apply(y)
        return tuple(s0[k] + s1[k] - s2[k] - mu * b_unit[i] * ptcols[j][k] for k in range(n))

    sbar = reference_extended_symmetrizer(inst, r)
    twist = mat_mul(transpose(sbar.coeff), transpose(f.form.gram))
    neg_twist = tuple(tuple(-x for x in row) for row in twist)
    adj = Bimodule(a, a.dim, *eager_action_tables(a))
    return _suite_report("frobenius-operator-suite", {
        "tensor_equation": slotwise_residual(inst, r).is_zero(),
        "induced_pair_identity": _all_zero(n, pair),
        "companion_pair_identity": _all_zero(n, companion),
        "right_twisted_rb": _all_zero(*_o_operator_defect(
            a, adj, p, WeightOp.right_twist(neg_twist))),
        "left_twisted_rb": _all_zero(*_o_operator_defect(
            a, adj, pt, WeightOp.left_twist(neg_twist))),
    })


def reference_check_algebra(a):
    """check_algebra as a dense loop of Algebra.mul calls on every basis
    triple, as it was before it summed over nonzero structure constants."""
    n = a.dim
    for i in range(n):
        for j in range(n):
            ij = a.sc[i][j]
            for k in range(n):
                lhs = a.mul(ij, unit_vec(n, k))
                rhs = a.mul(unit_vec(n, i), a.sc[j][k])
                if lhs != rhs:
                    return CheckReport(
                        "algebra-axioms", False,
                        witness={"kind": "associativity", "triple": [i, j, k],
                                 "left": [scalar_str(x) for x in lhs],
                                 "right": [scalar_str(x) for x in rhs]})
    if a.unit is not None:
        for k in range(n):
            ek = unit_vec(n, k)
            if a.mul(a.unit, ek) != ek or a.mul(ek, a.unit) != ek:
                return CheckReport(
                    "algebra-axioms", False,
                    witness={"kind": "unit", "basis_index": k})
    return CheckReport("algebra-axioms", True, details={"dim": n, "unital": a.is_unital})


def reference_check_bimodule(v):
    """check_bimodule as the dense loop over basis pairs of the algebra it was
    before it ran `_associator`: products of the action matrices."""
    a = v.algebra
    n = a.dim
    for i in range(n):
        for j in range(n):
            prod = a.sc[i][j]
            if v.lmat(prod) != mat_mul(v.left[i], v.left[j]):
                return CheckReport("bimodule-axioms", False,
                                   witness={"kind": "left-action", "pair": [i, j]})
            if v.rmat(prod) != mat_mul(v.right[j], v.right[i]):
                return CheckReport("bimodule-axioms", False,
                                   witness={"kind": "right-action", "pair": [i, j]})
            if mat_mul(v.right[j], v.left[i]) != mat_mul(v.left[i], v.right[j]):
                return CheckReport("bimodule-axioms", False,
                                   witness={"kind": "commuting-actions", "pair": [i, j]})
    return CheckReport("bimodule-axioms", True,
                       details={"algebra_dim": n, "module_dim": v.dim})


def reference_check_bimodule_algebra(b):
    """check_bimodule_algebra as the dense loops it was before it ran
    `_associator`: associativity on module basis triples, then the three
    compatibilities per algebra basis vector and module basis pair."""
    v = b.bimodule
    m = v.dim
    n = v.algebra.dim

    def mul(x, y):
        return apply_table(b.product, x, y)

    for i in range(m):
        for j in range(m):
            pij = b.product[i][j]
            for k in range(m):
                ek = unit_vec(m, k)
                if mul(pij, ek) != mul(unit_vec(m, i), b.product[j][k]):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "associativity",
                                                "triple": [i, j, k]})
    for k in range(n):
        lk, rk = v.left[k], v.right[k]
        for i in range(m):
            for j in range(m):
                pij = b.product[i][j]
                li = tuple(lk[p][i] for p in range(m))
                rj = tuple(rk[p][j] for p in range(m))
                ri = tuple(rk[p][i] for p in range(m))
                lj = tuple(lk[p][j] for p in range(m))
                if mat_vec(lk, pij) != mul(li, unit_vec(m, j)):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "left-compat", "data": [k, i, j]})
                if mat_vec(rk, pij) != mul(unit_vec(m, i), rj):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "right-compat", "data": [k, i, j]})
                if mul(ri, unit_vec(m, j)) != mul(unit_vec(m, i), lj):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "middle-compat", "data": [k, i, j]})
    return CheckReport("bimodule-algebra", True)


def reference_check_dendriform(d):
    """check_dendriform as the dense loop over basis triples it was before
    it ran `_associator`, with x * y = x < y + x > y."""
    m = d.dim

    def star(x, y):
        return tuple(p + s for p, s in zip(d.left_product(x, y), d.right_product(x, y)))

    for i in range(m):
        ei = unit_vec(m, i)
        for j in range(m):
            ej = unit_vec(m, j)
            for k in range(m):
                ek = unit_vec(m, k)
                if d.left_product(d.prec[i][j], ek) != d.left_product(ei, star(ej, ek)):
                    return CheckReport("dendriform-axioms", False,
                                       witness={"axiom": 1, "triple": [i, j, k]})
                if d.left_product(d.succ[i][j], ek) != d.right_product(ei, d.prec[j][k]):
                    return CheckReport("dendriform-axioms", False,
                                       witness={"axiom": 2, "triple": [i, j, k]})
                if d.right_product(star(ei, ej), ek) != d.right_product(ei, d.succ[j][k]):
                    return CheckReport("dendriform-axioms", False,
                                       witness={"axiom": 3, "triple": [i, j, k]})
    return CheckReport("dendriform-axioms", True)


def reference_form_is_invariant(a, b):
    """form_is_invariant as the dense loop it was before it ran
    `_associator`: B(e_i e_j, e_k) against B(e_i, e_j e_k) on every triple."""
    n = a.dim
    g = b.gram
    for i in range(n):
        for j in range(n):
            ij = a.sc[i][j]
            for k in range(n):
                lhs = sum(ij[p] * g[p][k] for p in range(n) if ij[p])
                jk = a.sc[j][k]
                rhs = sum(g[i][p] * jk[p] for p in range(n) if jk[p])
                if lhs != rhs:
                    return False
    return True


def reference_check_balanced_hom(a, v, beta):
    """check_balanced_hom as the dense loops it was before it ran
    `_associator`: both intertwining identities as matrix products for each
    algebra index k in turn, then the balance on every module pair."""
    n, m = a.dim, v.dim
    bm = beta.matrix
    if len(bm) != n or any(len(row) != m for row in bm):
        raise DimensionMismatch("map shape does not match module -> algebra")
    cols = transpose(bm) if n else ((),) * m
    for k in range(n):
        lk, rk = a._left[k], a._right[k]
        if mat_mul(bm, v.left[k]) != mat_mul(lk, bm):
            return CheckReport("balanced-homomorphism", False,
                               witness={"kind": "left-intertwine", "basis_index": k})
        if mat_mul(bm, v.right[k]) != mat_mul(rk, bm):
            return CheckReport("balanced-homomorphism", False,
                               witness={"kind": "right-intertwine", "basis_index": k})
    for i in range(m):
        li = v.lmat(cols[i])
        for j in range(m):
            bj = cols[j]
            lhs = tuple(li[p][j] for p in range(m))
            rj = v.rmat(bj)
            rhs = tuple(rj[p][i] for p in range(m))
            if lhs != rhs:
                return CheckReport("balanced-homomorphism", False,
                                   witness={"kind": "balance", "pair": [i, j]})
    return CheckReport("balanced-homomorphism", True)


def reference_check_augmentation(a, aug):
    """check_augmentation as it was with the cyclic trace identity tested on
    every basis triple after multiplicativity and normalisation."""
    n = a.dim
    eps = aug.apply
    for i in range(n):
        for j in range(n):
            lhs = eps(a.sc[i][j])
            rhs = aug.eps[i] * aug.eps[j]
            if lhs != rhs:
                return CheckReport(
                    "augmentation", False,
                    witness={"kind": "multiplicative", "pair": [i, j],
                             "left": scalar_str(lhs), "right": scalar_str(rhs)})
    if a.unit is not None and eps(a.unit) != 1:
        return CheckReport("augmentation", False,
                           witness={"kind": "unit-normalisation",
                                    "value": scalar_str(eps(a.unit))})
    for i in range(n):
        ei = unit_vec(n, i)
        for j in range(n):
            for k in range(n):
                xyz = a.mul(a.sc[i][j], unit_vec(n, k))
                yzx = a.mul(a.sc[j][k], ei)
                if eps(xyz) != eps(yzx):
                    return CheckReport("augmentation", False,
                                       witness={"kind": "cyclic", "triple": [i, j, k]})
    return CheckReport("augmentation", True)


def reference_unitization(sc):
    """unitization as it was, with its own copy of the unit rows."""
    inner = make_algebra(len(sc), sc, unit=None)
    rep = check_algebra(inner)
    if not rep.passed:
        raise NotAssociative(f"input multiplication is not associative: {dumps(rep.witness)}")
    m = inner.dim
    names = ("u",) + tuple(f"e{i + 1}" for i in range(m))
    alg = make_algebra(m + 1, _with_unit(inner.sc), unit=unit_vec(m + 1, 0), basis=names)
    return alg, Augmentation(alg, unit_vec(m + 1, 0))


def _with_unit(sc):
    """The structure constants of the product sc with a unit adjoined as e_0."""
    d = len(sc) + 1
    out = [[[int(k == (i or j)) if not (i and j) else 0 for k in range(d)] for j in range(d)]
           for i in range(d)]
    for i, row in enumerate(sc):
        for j, v in enumerate(row):
            out[1 + i][1 + j][1:] = v
    return out


def reference_unital_extension(d):
    """unital_extension as it was, with its own copy of the unit rows and of
    the star product."""
    from ybekit.dendriform import UnitalDendriform, _require_dendriform
    _require_dendriform(d)
    m = d.dim
    star = [[[p + s for p, s in zip(x, y)] for x, y in zip(r1, r2)]
            for r1, r2 in zip(d.prec, d.succ)]
    alg = make_algebra(m + 1, _with_unit(star), unit=unit_vec(m + 1, 0),
                       basis=("u",) + tuple(f"a{i + 1}" for i in range(m)))
    return alg, UnitalDendriform(d, alg)


def reference_semidirect_tail(a, v, alpha, beta, lam):
    """(algebra, r1, r2, s) of semidirect_solutions, built as they were after
    its preconditions: a semi-direct product of its own and the two tensors
    through four transposes of the lifted operator and the hom tensor."""
    hat_alg = semidirect_product(a, v)
    d = a.dim + v.dim
    _, s_tilde = hom_tensor(a, dual_bimodule(v), beta)
    hat = lift_o_operator(a, v, alpha, lam).hat
    bsharp = transpose(s_tilde.coeff)
    r1_sharp = mat_mul(bsharp, transpose(hat.matrix))
    r2_sharp = mat_mul(hat.matrix, bsharp)
    return hat_alg, Tensor2(d, transpose(r1_sharp)), Tensor2(d, transpose(r2_sharp)), s_tilde


def eager_action_tables(a):
    """(left, right): the multiplication matrix of each basis vector on the
    left and on the right, built from the structure constants as `Algebra`
    built them on construction before they became lazy."""
    n, sc = a.dim, a.sc
    return (tuple(transpose(sc[k]) for k in range(n)),  # [k][p][j] is (e_k e_j)[p]
            tuple(transpose(tuple(sc[j][k] for j in range(n))) for k in range(n)))


# `catalog.verify_catalog` with every verdict taken on the oracles above:
# each family checked at each mu, and the grid {0, mu} searched at each
# nonzero mu.

@cache  # each claim recurs at the same mu in the mu lists of many tests
def reference_family_checks(name, fam_name, mu):
    """(check, passed) for each claim about one catalog family at mu."""
    entry = catalog_algebra(name)
    fam = next(f for f in entry.families if f.name == fam_name)
    alg = entry.algebra
    inst = YbeInstance(alg, mu)
    r = fam.tensor(mu)
    sbar = reference_extended_symmetrizer(inst, r)
    checks = [("residual", slotwise_residual(inst, r).is_zero()),
              ("symmetrizer", sbar.coeff == fam.sbar_tensor(mu).coeff)]
    if name == "B2":
        sub = Tensor2(2, tuple(tuple(sbar.coeff[i][j] for j in range(2)) for i in range(2)))
        checks.append(("subalgebra-invariance",
                       reference_is_invariant(catalog_algebra("A2").algebra, sub).passed))
        checks.append(("full-invariance-absent", not reference_is_invariant(alg, sbar).passed))
    else:
        checks.append(("symmetrized-invariant", reference_is_invariant(alg, sbar).passed))
    q, lam = fam.q_map(mu), fam.weight_sign * mu
    checks.append(("rota-baxter-weight",
                   _all_zero(*_rota_baxter_defect(alg, q, lam))))
    if fam.form is not None:
        frob = entry.forms[fam.form]
        checks.append(("operator-table",
                       reference_induced_operators(frob, r)[0].matrix == q.matrix))
        bridge = reference_rb_bridge_suite(frob, mu, lam, r)
        checks.append(("bridge", bridge.passed and bridge.details["all_pass"]))
    return tuple(checks)


@cache
def _grid(name, mu):
    """The grid {0, mu} of one entry: its number of solutions, the nonzero
    ones and those of them whose extended symmetrizer is invariant."""
    inst = YbeInstance(catalog_algebra(name).algebra, mu)
    sols = grid_enumerate(inst, (0, mu))
    nonzero = tuple(s for s in sols if not s.is_zero())
    invariant = frozenset(s.coeff for s in nonzero if reference_is_invariant(
        inst.algebra, reference_extended_symmetrizer(inst, s)).passed)
    return len(sols), tuple(s.coeff for s in nonzero), invariant


def reference_verify_grid(entry, mu):
    """The grid subchecks at one mu, and the number of nonzero grid solutions."""
    name = entry.name
    count, nonzero, invariant = _grid(name, mu)
    details = {"grid_solutions": count, "grid_nonzero": len(nonzero)}
    if name in ("A1", "B3", "B5"):
        checks = [("grid", list(nonzero) == [unit_square(entry.algebra).scale(mu).coeff], details),
                  ("grid-not-symmetrized-invariant", not invariant, None)]
    else:
        stored = {f.tensor(mu).coeff for f in entry.families}
        checks = [("grid-nonzero-count", len(nonzero) == entry.grid_nonzero, details)] \
            if entry.grid_nonzero is not None else []
        if name in ("A2", "B1"):
            checks += [("grid-contains-stored", stored <= set(nonzero), details),
                       ("grid-invariant-subset", invariant == stored, details)]
        if name == "B4":
            checks.append(("grid-no-symmetrized-invariant", not invariant, details))
    return ([CheckReport(f"{name}:{check}@mu={mu}", ok, details=d) for check, ok, d in checks],
            len(nonzero))


def reference_verify_catalog(name, mus, grid=True):
    """Run every stored claim for one catalog entry at the given mu samples."""
    entry = catalog_algebra(name)
    checks = [CheckReport(f"{name}:algebra", reference_check_algebra(entry.algebra).passed)]
    for aug in entry.augmentations:
        checks.append(CheckReport(
            f"{name}:augmentation{tuple(aug.eps)}",
            reference_check_augmentation(entry.algebra, aug).passed))
    found = find_augmentations(entry.algebra)
    checks.append(CheckReport(
        f"{name}:augmentations-complete",
        {a.eps for a in found} == {a.eps for a in entry.augmentations},
        details={"found": [list(a.eps) for a in found]}))
    checks.extend(_verify_inv(entry))
    checks.extend(_verify_structure(entry))
    mus = [exact(m) for m in mus]
    grid_nonzero = {}
    for mu in mus:
        if mu == 0:
            continue
        for fam in entry.families:
            checks.extend(CheckReport(f"{name}/{fam.name}@mu={mu}:{check}", passed)
                          for check, passed in reference_family_checks(name, fam.name, mu))
        if grid:
            grid_checks, grid_nonzero[mu] = reference_verify_grid(entry, mu)
            checks.extend(grid_checks)
    details = {"mus": [str(m) for m in mus]}
    if name == "B1" and grid and mus:
        # At mu = 0 the grid {0, mu} holds only the zero tensor.
        details["grid_nonzero"] = grid_nonzero.get(mus[0], 0)
        details["reported_nonzero_total"] = 73  # reference count, not asserted
    return combine(f"catalog:{name}", checks, **details)


def augmentation_kernel_basis(aug: Augmentation) -> list:
    """A basis of the kernel of the augmentation's linear form."""
    return kernel_basis((aug.eps,))


def regular_bimodule_algebra(a: Algebra) -> BimoduleAlgebra:
    """The algebra acting on itself with its own multiplication as product."""
    return BimoduleAlgebra(adjoint_bimodule(a), a.sc)


def t3_zero(n: int) -> Tensor3:
    return Tensor3(n, (((0,) * n,) * n,) * n)


# The construction hypotheses as each construction wrote them out before
# they shared one symmetrizer relation and one witness rule, with every
# identity taken on the oracles above.

def reference_residual_witness(table):
    """The pair and value of the first nonzero entry of a defect table."""
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not is_zero_vec(v):
                return {"pair": [i, j], "defect": [scalar_str(x) for x in v]}
    return None


def _reference_symmetric_invariant(a, s):
    if not s.is_symmetric():
        raise NotSymmetric("tensor must be symmetric")
    if not reference_is_invariant(a, s).passed:
        raise NotInvariant("tensor must be invariant")


def reference_solutions_from_rb(a, s, p, lam, mu):
    _reference_symmetric_invariant(a, s)
    rb = reference_rota_baxter_residual(a, p, lam)
    if not residual_is_zero(rb):
        raise PreconditionViolated("rota-baxter", witness=reference_residual_witness(rb))
    ss = transpose(s.coeff)
    pm = p.matrix
    lhs = [[x + y for x, y in zip(r1, r2)]
           for r1, r2 in zip(mat_mul(ss, transpose(pm)), mat_mul(pm, ss))]
    uo = unit_square(a).coeff if mu != 0 else t2_zero(a.dim).coeff
    rhs = [[-lam * ss[i][j] + mu * uo[i][j] for j in range(a.dim)]
           for i in range(a.dim)]
    if lhs != rhs:
        raise PreconditionViolated(
            "operator-compatibility",
            witness={"defect": [[scalar_str(x - y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(lhs, rhs)]})
    return Tensor2(s.dim, mat_mul(pm, s.coeff)), Tensor2(s.dim, mat_mul(s.coeff, transpose(pm)))


def reference_rb_from_solution(a, s, r, lam, mu):
    _reference_symmetric_invariant(a, s)
    try:
        s_inv = invert(transpose(s.coeff))
    except SingularMatrix as exc:
        raise Degenerate("tensor is degenerate") from exc
    relation = r.add(r.flip()).add(s.scale(lam)).sub(unit_square(a).scale(mu)) \
        if mu != 0 else r.add(r.flip()).add(s.scale(lam))
    if not relation.is_zero():
        raise PreconditionViolated(
            "symmetrizer-relation",
            witness={"defect": [[scalar_str(x) for x in row]
                                for row in relation.coeff]})
    w = slotwise_residual(YbeInstance(a, mu), r).first_nonzero()
    if w is not None:
        raise PreconditionViolated("tensor-equation",
                                   witness={"slot": list(w[:3]), "value": scalar_str(w[3])})
    return LinearMap(mat_mul(transpose(r.coeff), s_inv)), LinearMap(mat_mul(r.coeff, s_inv))


def reference_semidirect_solutions(a, v, alpha, beta, lam, mu):
    """`semidirect_solutions` with its hypotheses written out, its tail
    through `lift_o_operator` (a second semi-direct product) and its unit
    compatibility through dense products of the two maps."""
    n = a.dim
    res = reference_o_operator_residual(a, v, alpha, WeightOp.zero())
    if not residual_is_zero(res):
        raise PreconditionViolated("weight-zero-operator",
                                   witness=reference_residual_witness(res))
    dual_v = dual_bimodule(v)
    bal = reference_check_balanced_hom(a, dual_v, beta)
    if not bal.passed:
        raise PreconditionViolated("balanced-homomorphism", witness=bal.witness)
    am, bm = alpha.matrix, beta.matrix
    compat = mat_mul(bm, transpose(am))
    compat = tuple(tuple(x + y for x, y in zip(r1, r2))
                   for r1, r2 in zip(compat, mat_mul(am, transpose(bm))))
    expect = unit_square(a).coeff if mu != 0 else t2_zero(n).coeff
    defect = tuple(tuple(x - mu * y for x, y in zip(r1, r2))
                   for r1, r2 in zip(compat, expect))
    if not all(is_zero_vec(row) for row in defect):
        raise PreconditionViolated(
            "unit-compatibility",
            witness={"defect": [[scalar_str(x) for x in row] for row in defect]})
    if mu != 0 and not (a.is_unital and is_unital_bimodule(v)):
        raise PreconditionViolated("unital-module")
    hat_alg, s_tilde = hom_tensor(a, dual_v, beta)
    hm = lift_o_operator(a, v, alpha, lam).hat.matrix
    return SemidirectSolutions(hat_alg, Tensor2(s_tilde.dim, mat_mul(hm, s_tilde.coeff)),
                               Tensor2(s_tilde.dim, mat_mul(s_tilde.coeff, transpose(hm))),
                               s_tilde, lam, mu)


def reference_invariant_dual_product(a, s):
    _reference_symmetric_invariant(a, s)
    return BimoduleAlgebra(dual_regular_bimodule(a), reference_dual_product(a, s))


def reference_dual_operator_suite(a, b, p, mu):
    """`dual_operator_suite`: its hypotheses written out in the order it
    tests them, then p and its dual as weighted O-operators and the
    residuals of the two tensors read off p."""
    u = a.require_unit()
    n = a.dim
    if b.bimodule.dim != n:
        raise DimensionMismatch("product must live on the dual of the algebra")
    pair_u = lambda w: vec_dot(w, u)
    for i in range(n):
        for j in range(n):
            if pair_u(b.product[i][j]) != pair_u(b.product[j][i]):
                raise PreconditionViolated(
                    "symmetric-unit-pairing", witness={"pair": [i, j]})
    s = tensor_from_dual_product(b)
    induced = reference_dual_product(a, s)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if b.product[j][i][k] != induced[j][i][k]:
                    raise PreconditionViolated(
                        "product-pairing", witness={"data": [i, j, k]})
    pm = p.matrix
    lhs = tuple(tuple(pm[m_][k] + pm[k][m_] for k in range(n)) for m_ in range(n))
    rhs = tuple(tuple(s.coeff[k][m_] + mu * u[m_] * u[k] for k in range(n))
                for m_ in range(n))
    if lhs != rhs:
        raise PreconditionViolated(
            "symmetrizer-relation",
            witness={"defect": [[scalar_str(x - y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(lhs, rhs)]})
    if s.is_zero():
        weight, branch = WeightOp.zero(), "weight-0"
    else:
        weight, branch = WeightOp.scalar(-1, b.product), "weight--1"
    inst = YbeInstance(a, mu)
    pt = transpose(pm)
    return _suite_report("dual-operator-suite", {
        "map_operator": _all_zero(*_o_operator_defect(a, b.bimodule, p, weight)),
        "dual_map_operator": _all_zero(*_o_operator_defect(
            a, b.bimodule, LinearMap(pt, p.domain), weight)),
        "first_slot_tensor": slotwise_residual(inst, Tensor2(n, pt)).is_zero(),
        "second_slot_tensor": slotwise_residual(inst, Tensor2(n, pm)).is_zero(),
    }, branch=branch)


def reference_rb_bridge_suite(f, mu, lam, r):
    """`rb_bridge_suite`: the symmetrizer is -lam times the form tensor, then
    the residual and the Rota-Baxter identities of both induced operators."""
    a = f.algebra
    inst = YbeInstance(a, mu)
    defect = reference_extended_symmetrizer(inst, r).add(f.phi.scale(lam))
    if not defect.is_zero():
        raise PreconditionViolated(
            "proportional-symmetrizer",
            witness={"defect": [[scalar_str(x) for x in row]
                                for row in defect.coeff]})
    p, pt = reference_induced_operators(f, r)
    return _suite_report("rb-bridge-suite", {
        "tensor_equation": slotwise_residual(inst, r).is_zero(),
        "rb_first": _all_zero(*_rota_baxter_defect(a, p, lam)),
        "rb_second": _all_zero(*_rota_baxter_defect(a, pt, lam)),
    })


def perfbench_workloads():
    """The benchmark's `perfbench.workloads`, imported read-only from the
    repository root."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        from perfbench import workloads
    finally:
        sys.path.pop(0)
    return workloads
