"""Tensor form of the mu-nonhomogeneous associative Yang-Baxter equation.

For r in A(x)A the three standard embeddings into A(x)A(x)A put the unit in
the unused slot; the equation reads

    r12 r13 + r13 r23 - r23 r12 = mu * r13.

Every residual comes from one kernel, `_slot_products`, which expands each
product of two embedded tensors over the nonzero structure constants, one
plane of first index at a time.  A unit is needed only for the mu-term
(`_residual_blocks`).  Run over `poly` variables they give the system that
`grid_enumerate` searches.  Checks are exact: pass means zero residual.

The kernel adds up integer numerators.  The structure constants are cleared
of denominators once per algebra (`Algebra._products`) and each input once
per call (`_cleared`); each kind of term is then scaled by L over the
product of its own inputs' denominators, so that a residual comes back as
ints over one common denominator L.  Values are formed only where they are
printed; verdicts test numerators; exact data is built once; a verdict
reads the blocks in order and stops at the first nonzero one.  A verdict
(the suites, the catalog) is `is_solution`: it divides nothing.  The
Tensor3 of `nhacybe_residual`, `opposite_residual` and `aybp_residual`,
for a caller that prints it such as `ybe check`, divides each entry once,
like `linalg._ratio` (an int when exact, else a Fraction; nothing when L
is 1), and is built without a second coercion (`linalg._trusted`).

The invariance identity s L(x)^T - R(x) s = 0 has one kernel too,
`_invariance_blocks`, under the same rule: `is_invariant` tests its
integer numerators block by block and divides out only the witness, and
`invariant_symmetric_basis` reads its equations off the same kernel run
over packed integer unknowns, unknown v being 2**(w v) for a digit width w
set by the structure constants (`_invariant_forms`), and solves them as
sparse integer rows.  No symbolic ring is involved.  In an associative
algebra invariance under x and y gives invariance under xy, so only the
blocks of basis vectors that are no multiple of a product of two earlier
ones are solved (`_implied_blocks`); the others are tested on the basis
found, and a non-associative table that fails one of them has the system
of every block solved instead.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby
from math import lcm
from operator import itemgetter

from .algebras import Algebra
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotAssociative,
    NotUnital,
    PreconditionViolated,
)
from .linalg import Frozen, Scalar, _kernel, _ratio, _trusted, exact, mat_scale, scalar_str
from .poly import Poly, variables
from .report import CheckReport, dumps
from .tensors import Tensor2, Tensor3, outer

SLOTS = (12, 13, 23)


class YbeInstance(Frozen):
    def __init__(self, algebra: Algebra, mu: Scalar):
        mu = exact(mu)
        self.__dict__.update(algebra=algebra, mu=mu)
        if mu != 0:
            algebra.require_unit()
        rep = algebra._axioms  # check_algebra, once per algebra
        if not rep.passed:
            error = NotUnital if rep.witness["kind"] == "unit" else NotAssociative
            raise error(f"invalid algebra: {dumps(rep.witness)}")


def unit_square(a: Algebra) -> Tensor2:
    """The tensor 1 (x) 1."""
    u = a.require_unit()
    return outer(u, u)


def embed(r: Tensor2, slots: int, a: Algebra) -> Tensor3:
    """Place r in two tensor slots of A(x)A(x)A with the unit in the third.

    No library code reads it: the residual comes from `_slot_products`.  It
    stays for the oracle that checks `ybe enumerate` in the benchmark
    (`perfbench/workloads.py`, and `test_tiny_enumerate_count_is_complete`
    in its tests), which recomputes each listed residual from `embed` and
    `triple_mul`; without them every enumerate output would be counted
    incorrect."""
    if slots not in SLOTS:
        raise DimensionMismatch(f"slots must be one of {SLOTS}")
    n = a.dim
    if r.dim != n:
        raise DimensionMismatch(f"tensor dim {r.dim} != algebra dim {n}")
    u = a.require_unit()
    c = r.coeff
    if slots == 12:
        coeff = tuple(tuple(tuple(c[p][q] * u[s] for s in range(n))
                            for q in range(n)) for p in range(n))
    elif slots == 13:
        coeff = tuple(tuple(tuple(c[p][s] * u[q] for s in range(n))
                            for q in range(n)) for p in range(n))
    else:
        coeff = tuple(tuple(tuple(u[p] * c[q][s] for s in range(n))
                            for q in range(n)) for p in range(n))
    return Tensor3(n, coeff)


def triple_mul(x: Tensor3, y: Tensor3, a: Algebra) -> Tensor3:
    """Slotwise product in A(x)A(x)A.

    No library code reads it either; like `embed` it stays because the
    enumerate oracle of the benchmark multiplies the embedded tensors with
    it, and without it every enumerate output would be counted incorrect."""
    n = a.dim
    if x.dim != n or y.dim != n:
        raise DimensionMismatch("tensor dims do not match algebra dim")
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    nz_x = [(i, j, k, c) for i, pl in enumerate(x.coeff)
            for j, row in enumerate(pl) for k, c in enumerate(row) if c]
    nz_y = [(i, j, k, c) for i, pl in enumerate(y.coeff)
            for j, row in enumerate(pl) for k, c in enumerate(row) if c]
    sc = a.sc
    for i1, i2, i3, cx in nz_x:
        for j1, j2, j3, cy in nz_y:
            c = cx * cy
            v1, v2, v3 = sc[i1][j1], sc[i2][j2], sc[i3][j3]
            for p, a1 in enumerate(v1):
                if not a1:
                    continue
                ca = c * a1
                for q, a2 in enumerate(v2):
                    if not a2:
                        continue
                    cb = ca * a2
                    for s, a3 in enumerate(v3):
                        if a3:
                            out[p][q][s] += cb * a3
    return Tensor3(n, tuple(tuple(tuple(r) for r in pl) for pl in out))


def _check_ybe_args(inst: YbeInstance, r: Tensor2):
    if r.dim != inst.algebra.dim:
        raise DimensionMismatch(
            f"tensor dim {r.dim} != algebra dim {inst.algebra.dim}")


def _sparse_rows(m, f: int = 1) -> list[list[tuple]]:
    """The nonzero entries of each row of m as (j, f * m[.][j]), unscaled when f is 1."""
    if f != 1:
        return [[(j, x * f) for j, x in enumerate(row) if x] for row in m]
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _slot_products(groups, terms, n: int):
    """Yields, for P = 0, 1, ..., the n x n plane of first index P, row-major,
    of the sum of coef * x?? y?? over terms (coef, slots, x, y): coef an
    int, x and y coefficient matrices, slots "12.13", "13.23" or "23.12",
    the products taken by the integer structure constants grouped as in
    `Algebra._groups`.  For e_i e_k = ... + c e_p, x12 y13 adds
    c x[i][q] y[k][s] at (p, q, s), x13 y23 c x[q][i] y[s][k] at (q, s, p)
    and x23 y12 c x[i][q] y[s][k] at (s, p, q), so plane P reads the
    constants with output P, row P of x and row P of y respectively."""
    by_p, by_i, by_k = groups
    rows = {k: _sparse_rows(m) for k, m in {id(m): m for t in terms for m in t[2:]}.items()}
    cols = {id(y): _sparse_rows(zip(*y)) for _, slots, _, y in terms if slots == "13.23"}
    prepared = [(coef, slots, rows[id(x)], rows[id(y)], cols.get(id(y)))
                for coef, slots, x, y in terms]
    for P in range(n):
        out = [0] * (n * n)
        for coef, slots, xr, yr, yc in prepared:
            if slots == "12.13":
                for i, k, c in by_p[P]:
                    c, yk = coef * c, yr[k]
                    for q, xq in xr[i]:
                        base, cq = q * n, c * xq
                        for s, ys in yk:
                            out[base + s] += cq * ys
            elif slots == "13.23":
                for i, xi in xr[P]:
                    for k, p, c in by_i[i]:
                        cx = coef * c * xi
                        for s, ys in yc[k]:
                            out[s * n + p] += cx * ys
            else:
                for k, yk in yr[P]:
                    for i, p, c in by_k[k]:
                        base, cy = p * n, coef * c * yk
                        for q, xq in xr[i]:
                            out[base + q] += cy * xq
        yield out


def _cleared(m) -> tuple[int, tuple]:
    """(d, d * m): d is the lcm of the denominators of the entries of the
    matrix m, so d * m holds ints, or polynomials where m does.  A matrix
    without Fraction entries is returned as it is, with d = 1; one with
    integral Fractions such as Fraction(2, 1) gets ints in their place.  An
    `_Operand` is cleared already and is returned as it is."""
    if type(m) is _Operand:
        return m
    dens = [x.denominator for row in m for x in row if type(x) is Fraction]
    if not dens:
        return 1, m
    d = lcm(*dens)
    return d, tuple(tuple(x.numerator * (d // x.denominator) if type(x) is Fraction
                          else x * d for x in row) for row in m)


class _Operand(tuple):
    """(d, d * m) for a matrix m, as `_cleared` returns it, kept by what it
    derives from, with the lists kernels read off d * m kept in `lists`."""

    def __new__(cls, d: int, m):
        op = super().__new__(cls, (d, m))
        op.lists = {}
        return op


def _operands(c, ct) -> tuple:
    """c, ct, -c and -ct as `_Operand`s over one denominator: the columns of
    a pair of maps from a module to the algebra and of their negatives."""
    d, rows = _cleared((*c, *ct))
    c, ct = rows[:len(c)], rows[len(c):]
    return tuple(_Operand(d, m) for m in (c, ct, mat_scale(-1, c), mat_scale(-1, ct)))


def _values(num: list, den: int) -> list:
    """Each entry of num divided by den: an int when exact, else a Fraction;
    a Poly by coefficient.  Zero entries are kept as they are."""
    if den == 1:
        return num
    return [x and (Poly({m: _ratio(c, den) for m, c in x.items()}) if isinstance(x, Poly)
                   else _ratio(x, den)) for x in num]


def _tensor3(n: int, blocks, den: int) -> Tensor3:
    return _trusted(Tensor3, n, tuple(tuple(tuple(plane[q * n:(q + 1) * n]) for q in range(n))
                                      for plane in (_values(b, den) for b in blocks)))


def _residual_blocks(a: Algebra, mu, c, opposite: bool = False) -> tuple:
    """(planes, den): r12 r13 + r13 r23 - r23 r12 - mu r13 for the coefficient
    matrix c is num / den, planes yielding num one n x n plane of first index
    at a time, row-major.  Products are taken in the algebra, or in its
    opposite, whose structure constants are sc[k][i] in place of sc[i][k].
    num holds ints, or polynomials when c does; den is a positive int."""
    n, dsc = a.dim, a._products[0]
    dc, x = _cleared(c)
    den = quad = dsc * dc * dc
    u = ()  # (q, minus the numerator of mu u[q]) for the mu-term, over den
    if mu != 0:
        du, (unit,) = _cleared((a.require_unit(),))
        lin = mu.denominator * du * dc
        den = lcm(quad, lin)
        u = [(q, -(den // lin) * mu.numerator * uq) for q, uq in enumerate(unit) if uq]
    kq = den // quad
    terms = ((kq, "12.13", x, x), (kq, "13.23", x, x), (-kq, "23.12", x, x))

    def planes():
        for out, row in zip(_slot_products(a._groups[opposite], terms, n), x):
            for q, fq in u:
                for s, xs in enumerate(row):
                    if xs:
                        out[q * n + s] += fq * xs
            yield out
    return planes(), den


def _residual_num(a: Algebra, mu, c, opposite: bool = False) -> tuple[list, int]:
    """`_residual_blocks` with its planes joined into one row-major list."""
    planes, den = _residual_blocks(a, mu, c, opposite)
    return [*chain.from_iterable(planes)], den


def _residual_flat(a: Algebra, mu, c, opposite: bool = False) -> list:
    """The coefficients of `_residual_num` as values, over any ring."""
    return _values(*_residual_num(a, mu, c, opposite))


def nhacybe_residual(inst: YbeInstance, r: Tensor2) -> Tensor3:
    """r12 r13 + r13 r23 - r23 r12 - mu r13, expanded over basis products."""
    _check_ybe_args(inst, r)
    return _tensor3(r.dim, *_residual_blocks(inst.algebra, inst.mu, r.coeff))


def opposite_residual(inst: YbeInstance, r: Tensor2) -> Tensor3:
    """r13 r12 + r23 r13 - r12 r23 - mu r13 for the opposite equation.

    This is the equation itself over the opposite algebra, whose structure
    constants are sc[k][i] in place of sc[i][k].
    """
    _check_ybe_args(inst, r)
    return _tensor3(r.dim, *_residual_blocks(inst.algebra, inst.mu, r.coeff, opposite=True))


def is_solution(inst: YbeInstance, r: Tensor2) -> bool:
    _check_ybe_args(inst, r)
    return not any(map(any, _residual_blocks(inst.algebra, inst.mu, r.coeff)[0]))


def _residual_witness(inst: YbeInstance, r: Tensor2) -> tuple | None:
    """(p, q, s, value) of the first nonzero residual entry of r, read off
    the first nonzero plane of `_residual_blocks`; None for a solution."""
    _check_ybe_args(inst, r)
    planes, den = _residual_blocks(inst.algebra, inst.mu, r.coeff)
    for p, plane in enumerate(planes):
        for t, x in enumerate(plane):
            if x:
                return (p, *divmod(t, r.dim), _ratio(x, den))
    return None


def _symmetrizer_num(a: Algebra, x, mu) -> tuple[int, list[list[int]]]:
    """(den, num): x + x^t - mu (1 (x) 1) is num / den for an n x n matrix x
    over the algebra a, num as rows of ints.  x is cleared once (`_cleared`),
    and mu and the unit are taken as numerator over denominator."""
    n = a.dim
    dx, c = _cleared(x)
    den, lin, u = dx, 1, ()
    if mu != 0:
        du, (u,) = _cleared((a.require_unit(),))
        lin = mu.denominator * du * du
        den = lcm(dx, lin)
    kx, f = den // dx, den // lin * mu.numerator
    num = [[kx * (c[i][j] + c[j][i]) for j in range(n)] for i in range(n)]
    for ui, row in zip(u, num):
        if ui:
            fi = f * ui
            for j, uj in enumerate(u):
                if uj:
                    row[j] -= fi * uj
    return den, num


def extended_symmetrizer(inst: YbeInstance, r: Tensor2) -> Tensor2:
    """r + flip(r) - mu (1 (x) 1); always a symmetric tensor.

    Added up on integer numerators (`_symmetrizer_num`), each entry divided
    once by the common denominator (`_values`)."""
    _check_ybe_args(inst, r)
    den, num = _symmetrizer_num(inst.algebra, r.coeff, inst.mu)
    return _trusted(Tensor2, r.dim, tuple(tuple(_values(row, den)) for row in num))


def _require_symmetrizer(equation: str, sym: tuple[int, list], lam=0, s: Tensor2 | None = None):
    """The hypothesis of every construction: the symmetrizer sym, (den, num)
    from `_symmetrizer_num` or `_cleared`, is -lam s.  Tested on integer
    numerators; PreconditionViolated(equation) carries the whole defect."""
    den, num = sym
    lam = exact(lam)
    if lam != 0:
        ds, y = _cleared(s.coeff)
        lin = lam.denominator * ds
        d = lcm(den, lin)
        k, f = d // den, d // lin * lam.numerator
        den, num = d, [[k * v + f * w for v, w in zip(r1, r2)] for r1, r2 in zip(num, y)]
    if any(map(any, num)):
        raise PreconditionViolated(equation, witness={
            "defect": [[scalar_str(v) for v in _values(row, den)] for row in num]})


def _invariance_blocks(a: Algebra, x, ks=None):
    """x L(e_k)^T - R(e_k) x for each basis vector e_k in turn: yields the
    n x n block of e_k, (p, q) row-major, for k = 0, 1, ..., or for each k
    of ks in its order, with the products taken by the integer structure
    constants of `Algebra._groups`.  For an x cleared of its denominator d
    the true values are these over d times the algebra's denominator.  x
    holds ints: the numerators of a tensor, or the packed unknowns of
    `_invariant_forms`.

    For e_k e_i = ... + c e_p, the k-th block gains c x[r][i] at (r, p) (the
    left piece); for e_i e_k = ... + c e_p, it loses c x[i][q] at (p, q)
    (the right piece).  The block is linear in e_k, and in an associative
    algebra invariance under x and y gives it under xy:
    (id (x) L(xy)) s = (id (x) L(x))(R(y) (x) id) s = (R(y) R(x) (x) id) s
    = (R(xy) (x) id) s.  So a block whose basis vector is a multiple of a
    product of two earlier ones vanishes wherever those two do
    (`_implied_blocks`).
    """
    n = a.dim
    _, by_i, by_k = a._groups[False]
    rows = _sparse_rows(x)
    cols = _sparse_rows(zip(*x))
    for k in range(n) if ks is None else ks:
        out = [0] * (n * n)
        for i, p, c in by_i[k]:
            for r, xr in cols[i]:
                out[r * n + p] += c * xr
        for i, p, c in by_k[k]:
            for q, xq in rows[i]:
                out[p * n + q] -= c * xq
        yield out


def _implied_blocks(a: Algebra) -> tuple[list[int], list[int]]:
    """(kept, implied): the basis indices p, increasing, split by whether
    some product e_i e_j with i, j < p has its only nonzero coordinate at p.
    Such a p is implied: in an associative algebra its invariance block
    vanishes wherever the blocks of e_i and e_j do (`_invariance_blocks`),
    and by induction on p wherever the kept blocks do."""
    implied = set()
    for (i, j), entries in groupby(a._products[1], itemgetter(0, 1)):
        (_, _, p, _), *more = entries
        if not more and i < p and j < p:
            implied.add(p)
    kept = [p for p in range(a.dim) if p not in implied]
    return kept, sorted(implied)


def is_invariant(a: Algebra, s: Tensor2) -> CheckReport:
    """Whether (id (x) L(x) - R(x) (x) id) s = 0 for every basis x.

    The defect is tested block by block on the integer numerators of
    `_invariance_blocks`; the first nonzero block, the witness, is the last
    one formed and the only one divided out.
    """
    if s.dim != a.dim:
        raise DimensionMismatch("tensor dim does not match algebra dim")
    n = a.dim
    ds, x = _cleared(s.coeff)
    for k, block in enumerate(_invariance_blocks(a, x)):
        if any(block):
            d = _values(block, a._products[0] * ds)
            return CheckReport(
                "invariant-tensor", False,
                witness={"basis_index": k,
                         "defect": [[scalar_str(v) for v in d[p * n:(p + 1) * n]]
                                    for p in range(n)]})
    return CheckReport("invariant-tensor", True)


def _symmetric_unknowns(n: int) -> list[list[int]]:
    """unknown[i][j] = unknown[j][i] = i(i+1)/2 + j for i >= j: the row-major
    position of the lower-triangle entry (max, min) of each pair {i, j}."""
    unknown = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            unknown[i][j] = unknown[j][i] = i * (i + 1) // 2 + j
    return unknown


def _unpacked(f: int, w: int) -> dict[int, int]:
    """{v: d} for the nonzero signed base-2**w digits d of f = sum d 2**(w v),
    each d strictly between -2**(w-1) and 2**(w-1).  The lowest set bit of f
    lies in its lowest nonzero digit, so the digits are read from there up."""
    out = {}
    half, mask = 1 << (w - 1), (1 << w) - 1
    while f:
        v = ((f & -f).bit_length() - 1) // w
        d = (f >> (w * v)) & mask
        if d >= half:
            d -= 1 << w
        out[v] = d
        f -= d << (w * v)
    return out


def _invariant_forms(a: Algebra, ks=None) -> list[dict[int, int]]:
    """The distinct nonzero equations of `_invariance_blocks` (of the blocks
    ks, or of all) over a symmetric matrix of unknowns
    (`_symmetric_unknowns`), in the order they first occur, as sparse
    integer rows {unknown: coefficient}.

    The kernel runs over plain ints (Kronecker substitution): unknown v is
    2**(w v), so each entry comes out as the int sum c_v 2**(w v) of its
    form.  Entry (r, p) of block k is the sum of c x[r][i] over e_k e_i =
    ... + c e_p minus that of c x[i][p] over e_i e_k = ... + c e_r, and an
    unknown {r, i} or {i, p} fixes i, so each coefficient is at most one
    constant minus another: never more than 2 max|c| over the integer
    constants of `Algebra._products` in size.  With 2 max|c| < 2**(w-1)
    every coefficient is one signed base-2**w digit, so equal forms are equal
    ints and are dropped on the int, and each distinct int is read back once
    (`_unpacked`).
    """
    bound = 2 * max((abs(c) for *_, c in a._products[1]), default=0)
    w = bound.bit_length() + 1
    packed = [[1 << (w * v) for v in row] for row in _symmetric_unknowns(a.dim)]
    forms = dict.fromkeys(f for block in _invariance_blocks(a, packed, ks) for f in block if f)
    return [_unpacked(f, w) for f in forms]


def invariant_symmetric_basis(a: Algebra) -> list[Tensor2]:
    """Basis of the space of symmetric invariant tensors, by a linear solve.

    The unknowns are the n(n+1)/2 entries s[i][j] with i >= j, in row-major
    order.  Every free column of the reduced system is then such an entry,
    exactly as in the n*n system with antisymmetry rows, so the basis is the
    same as that system's.  The equations are the distinct nonzero forms of
    `_invariance_blocks` over packed integer unknowns (`_invariant_forms`);
    they go to `linalg._kernel` as sparse integer rows in the kernel's order,
    which peels the one-entry rows before it eliminates.  The system is never
    a dense matrix.  A zero-product algebra gives no equations: every
    symmetric tensor.

    Only the kept blocks of `_implied_blocks` are solved: in an associative
    algebra invariance under e_i and e_j gives it under e_i e_j, so the
    implied blocks add no condition.  On M4 that is 7 of 16 blocks and a
    348 x 136 system in place of 444 x 136 (M3: 114 x 45 for 132 x 45);
    peeling its one-entry rows takes 126 columns and leaves 24 two-entry
    rows.  Each basis tensor is then tested on the implied blocks, on its
    integer numerators.  When all pass, the kernel of the kept blocks lies
    in that of every block, so the two are equal, their rows span the same
    space and share one reduced row echelon form: the basis is the one the
    system of every block gives.  Only if one fails, which needs a
    non-associative table, is the system of every block solved instead.
    """
    n = a.dim
    unknown = _symmetric_unknowns(n)
    kept, implied = _implied_blocks(a)
    size = n * (n + 1) // 2

    def coeffs(forms):
        return [tuple(tuple(v[unknown[i][j]] for j in range(n)) for i in range(n))
                for v in _kernel(forms, size)]
    basis = coeffs(_invariant_forms(a, kept))
    if implied and any(any(map(any, _invariance_blocks(a, _cleared(c)[1], implied)))
                       for c in basis):
        basis = coeffs(_invariant_forms(a))
    return [Tensor2(n, c) for c in basis]


def is_symmetrized_invariant(inst: YbeInstance, r: Tensor2) -> CheckReport:
    """Whether the extended symmetrizer of r is an invariant tensor."""
    rep = is_invariant(inst.algebra, extended_symmetrizer(inst, r))
    return CheckReport("symmetrized-invariant", rep.passed, witness=rep.witness)


def aybp_residual(a: Algebra, r: Tensor2, s: Tensor2) -> tuple[Tensor3, Tensor3]:
    """Residuals of the two coupled Yang-Baxter-pair equations

    r12 r13 - r23 r12 + r13 s23  and  r12 s13 - s23 s12 + s13 s23.
    """
    n = a.dim
    if r.dim != n or s.dim != n:
        raise DimensionMismatch("tensor dims do not match algebra dim")
    dsc = a._products[0]

    def total(terms) -> Tensor3:
        """The sum of sign * x?? y?? over terms (sign, slots, (dx, x), (dy, y))."""
        den = lcm(*(dsc * dx * dy for _, _, (dx, _), (dy, _) in terms))
        return _tensor3(n, _slot_products(
            a._groups[False], [(sign * (den // (dsc * dx * dy)), slots, x, y)
                               for sign, slots, (dx, x), (dy, y) in terms], n), den)

    x, y = _cleared(r.coeff), _cleared(s.coeff)
    return (total(((1, "12.13", x, x), (-1, "23.12", x, x), (1, "13.23", x, y))),
            total(((1, "12.13", x, y), (-1, "23.12", y, y), (1, "13.23", y, y))))


def _search_checks(a: Algebra, mu: Scalar) -> list[list[tuple]]:
    """checks[last]: (quad, lin) of each nonzero component whose highest variable
    (r[i][j] is i * n + j) is last; quad has (coef, u, v), u <= v, lin (coef, u)."""
    checks = [[] for _ in range(a.dim ** 2)]
    for f in _residual_flat(a, mu, variables(a.dim)):
        if f:
            terms = sorted(f.items())
            checks[max(m[-1] for m in f)].append(
                (tuple((c, *m) for m, c in terms if len(m) == 2),
                 tuple((c, *m) for m, c in terms if len(m) == 1)))
    return checks


def grid_enumerate(inst: YbeInstance, values, budget: int = 1 << 25) -> list[Tensor2]:
    """All solutions whose coefficients lie in `values`, in lexicographic
    order of the coefficient rows.  Deterministic; not a completeness proof
    for anything outside the grid.

    A depth-first search assigns the entries of r in row-major order, tries
    the values in increasing order, and tests each residual component as soon
    as its last entry is fixed (`_search_checks`), over integers: with `scale`
    the lcm of the denominators, R_mu(r / scale) = R_{scale mu}(r) / scale**2.
    `budget` caps the search nodes, one node being one value tried at one
    position; BudgetExceeded is raised when the search would pass it.  Every
    solution found is confirmed once more by the kernel at the original mu,
    on its integer numerators, and built from the exact grid values without
    a second coercion (`linalg._trusted`).
    """
    a, mu, n = inst.algebra, inst.mu, inst.algebra.dim
    vals = sorted({exact(v) for v in values})
    if not vals:
        return []
    scale = lcm(*(v.denominator for v in vals + [mu]))
    ints = [exact(scale * v) for v in vals]
    checks = _search_checks(a, exact(scale * mu))
    size = n * n
    x = [0] * size
    tried = [0] * size  # values tried so far at each depth
    found = []
    nodes = 0
    d = 0
    while d >= 0:
        if d == size:
            cand = tuple(tuple(vals[t - 1] for t in tried[i * n:i * n + n]) for i in range(n))
            if any(_residual_num(a, mu, cand)[0]):
                raise RuntimeError(
                    f"compiled residual form disagrees with the residual kernel at {cand}")
            found.append(_trusted(Tensor2, n, cand))
            d -= 1
            continue
        if tried[d] == len(vals):
            tried[d] = 0
            d -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search exceeds budget of {budget} nodes")
        x[d] = ints[tried[d]]
        tried[d] += 1
        for quad, lin in checks[d]:
            total = 0
            for c, u, v in quad:
                total += c * x[u] * x[v]
            for c, u in lin:
                total += c * x[u]
            if total:
                break
        else:
            d += 1
    return found
