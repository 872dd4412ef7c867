"""Finite-dimensional associative algebras given by structure constants,
their bimodules, bilinear forms, augmentations and the standard
constructions (duals, semi-direct products, unitization, matrix algebras).

Conventions, fixed once and relied on everywhere downstream:

* sc[i][j] is the coordinate vector of the basis product e_i e_j.
* Bimodule actions are stored per algebra basis vector as matrices acting on
  column vectors: left[k] @ v realises e_k acting on the left, right[k] @ v
  realises e_k acting on the right.  Right actions therefore compose
  contravariantly: rmat(x y) = rmat(y) @ rmat(x).
* Semi-direct products order the algebra part before the module part.
* Exact data is built once.  Algebra, Bimodule, BilinearForm and
  Augmentation are `linalg.Frozen` values: immutable, compared and hashed
  field by field, with the parameters of `__init__` as their fields.  A
  public constructor coerces every entry to an exact scalar, refusing
  floats, and then checks shapes (`_check`); `io_json` parses exact
  entries itself and only checks the shapes; data
  derived from exact data, such as the adjoint and dual bimodules, is
  neither coerced nor checked again (`linalg._trusted`).  Everything
  derived from sc, basis and unit is built on first use and kept, since an
  Algebra never changes: the dense multiplication matrices `_left`/`_right`
  (2 n^3 entries, transposed slices of sc, read by the adjoint bimodule,
  the dual product and `check_balanced_hom`), the sparse integer constants
  `_products` (read by `check_algebra`), their grouping `_groups` by output
  and by factor, for the algebra and for its opposite (read by
  `check_algebra` and the residual, operator and invariance kernels), the
  axiom check `_axioms` and the adjoint and dual regular bimodules.  The
  dual regular bimodule is read off sc without the adjoint one: e_k acts on
  the left by the slice (sc[j][k] for j) and on the right by sc[k], and its
  integer action entries (`Bimodule._actions`) are the `_groups` by factor.
* Every structural axiom has the shape (x o1 y) o2 z = x o3 (y o4 z), and the
  fourth kernel, `_associator`, checks each one from four sparse product
  tables (the residual, operator and invariance kernels are the other three).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm

from .errors import DimensionMismatch, NotAssociative
from .linalg import (
    Frozen,
    Mat,
    Vec,
    _entries,
    _rectangular,
    _trusted,
    identity,
    is_zero_vec,
    mat,
    scalar_str,
    transpose,
    unit_vec,
    vec,
    zero_vec,
)
from .report import CheckReport, dumps


class Algebra(Frozen):
    def __init__(self, dim: int, basis: tuple[str, ...], sc: tuple[tuple[Vec, ...], ...],
                 unit: Vec | None):
        sc = tuple(tuple(vec(v) for v in row) for row in sc)
        self.__dict__.update(dim=dim, basis=tuple(basis), sc=sc,
                             unit=None if unit is None else vec(unit))
        self._check()

    def _check(self):
        n, sc = self.dim, self.sc
        if len(sc) != n or any(len(row) != n for row in sc) or any(
                len(v) != n for row in sc for v in row):
            raise DimensionMismatch(f"structure constants are not {n}x{n}x{n}")
        if len(self.basis) != n:
            raise DimensionMismatch("basis names do not match dim")
        if self.unit is not None and len(self.unit) != n:
            raise DimensionMismatch("unit vector has wrong length")

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def left_matrix(self, x: Vec) -> Mat:
        """Matrix of y -> x y."""
        return _action_matrix(self._left, x, self.dim)

    def right_matrix(self, x: Vec) -> Mat:
        """Matrix of y -> y x."""
        return _action_matrix(self._right, x, self.dim)

    def mul(self, x: Vec, y: Vec) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match algebra dim")
        return apply_table(self.sc, x, y)

    def require_unit(self) -> Vec:
        from .errors import NotUnital
        if self.unit is None:
            raise NotUnital("operation requires a unital algebra")
        return self.unit

    # Derived data, computed on first use and kept: an Algebra never changes.

    @cached_property
    def _left(self) -> tuple[Mat, ...]:
        """The matrix of y -> e_k y for each basis vector e_k: sc[k] transposed."""
        return tuple(map(transpose, self.sc))

    @cached_property
    def _right(self) -> tuple[Mat, ...]:
        """The matrix of y -> y e_k for each basis vector e_k: the slice
        (sc[j][k] for j) transposed."""
        return tuple(map(transpose, zip(*self.sc)))

    @cached_property
    def _products(self) -> tuple[int, list[tuple]]:
        """(d, nz): d the lcm of the denominators of the structure constants,
        nz the nonzero ones as (i, k, p, d * c) where e_i e_k has c at e_p,
        so that every entry of nz is an int.  Only nonzero product vectors
        are scanned entry by entry."""
        nz = [(i, k, p, c) for i, row in enumerate(self.sc) for k, v in enumerate(row)
              if any(v) for p, c in enumerate(v) if c]
        d = lcm(*(c.denominator for *_, c in nz if type(c) is Fraction))
        return d, [(i, k, p, int(c * d)) for i, k, p, c in nz]

    @cached_property
    def _groups(self) -> tuple[tuple[list, list, list], tuple[list, list, list]]:
        """(by_p, by_i, by_k) for the algebra and for its opposite: the entries
        (i, k, p, c) of `_products` as (i, k, c) in by_p[p], (k, p, c) in
        by_i[i] and (i, p, c) in by_k[k].  The opposite's e_k e_i is e_i e_k."""
        by_p, by_i, by_k = ([[] for _ in range(self.dim)] for _ in range(3))
        for i, k, p, c in self._products[1]:
            by_p[p].append((i, k, c))
            by_i[i].append((k, p, c))
            by_k[k].append((i, p, c))
        return (by_p, by_i, by_k), ([[(k, i, c) for i, k, c in g] for g in by_p], by_k, by_i)

    @cached_property
    def _axioms(self) -> CheckReport:
        """check_algebra(self), run once however many instances use it."""
        return check_algebra(self)

    @cached_property
    def _adjoint(self) -> "Bimodule":
        return _trusted(Bimodule, self, self.dim, self._left, self._right)

    @cached_property
    def _dual_regular(self) -> "Bimodule":
        """The dual of the adjoint bimodule, read off sc (see above)."""
        v = _trusted(Bimodule, self, self.dim, tuple(zip(*self.sc)), self.sc)
        _, by_i, by_k = self._groups[False]
        v.__dict__["_actions"] = self._products[0], by_k, by_i  # kept as Bimodule._actions
        return v


def apply_table(table, x: Vec, y: Vec) -> Vec:
    """The bilinear product sum x_i y_j table[i][j] of two coordinate vectors."""
    m = len(x)
    out = [0] * len(table[0][0]) if m else []
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for p, t in enumerate(row[j]):
                if t:
                    out[p] += c * t
    return tuple(out)


def _action_matrix(table, x: Vec, m: int) -> Mat:
    """The m x m matrix sum x_k table[k]."""
    out = [[0] * m for _ in range(m)]
    for k, c in enumerate(x):
        if not c:
            continue
        mx = table[k]
        for p in range(m):
            row = mx[p]
            orow = out[p]
            for q in range(m):
                if row[q]:
                    orow[q] += c * row[q]
    return tuple(tuple(r) for r in out)


def _basis_names(dim, basis=None) -> tuple[str, ...]:
    """The given basis names, or e1, ..., e<dim> when there are none."""
    return tuple(basis) if basis else tuple(f"e{i + 1}" for i in range(dim))


def make_algebra(dim, sc, unit=None, basis=None) -> Algebra:
    return Algebra(dim, _basis_names(dim, basis), sc, unit)


def algebra_from_products(dim, products: dict, unit=None, basis=None) -> Algebra:
    """Build an algebra from sparse basis products {(i, j): {k: c}}."""
    sc = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), val in products.items():
        for k, c in val.items():
            sc[i][j][k] = c
    return make_algebra(dim, sc, unit=unit, basis=basis)


def _associator(t1, t2, t3, t4, groups=None) -> list[tuple[int, int, int]]:
    """The sorted basis triples (i, j, k) on which (e_i t1 e_j) t2 e_k and
    e_i t3 (e_j t4 e_k) differ.

    Each product table is its nonzero entries (i, k, p, c): e_i e_k has c at
    e_p.  The spaces may differ from table to table, and the kernel is linear
    in each table, so entries that repeat are summed.  Both sides are summed
    into one dict over pairs of entries only; `groups`, when given, is t2
    grouped by first factor and t3 by second, as (k, p, c) and (i, p, c).
    """
    if groups is None:
        groups = defaultdict(list), defaultdict(list)
        for i, k, p, c in t2:
            groups[0][i].append((k, p, c))
        for i, k, p, c in t3:
            groups[1][k].append((i, p, c))
    by_first, by_second = groups
    diff = {}  # (i, j, k, q): coordinate q of the difference
    for i, j, p, c in t1:
        for k, q, c2 in by_first[p]:
            key = (i, j, k, q)
            diff[key] = diff.get(key, 0) + c * c2
    for j, k, p, c in t4:
        for i, q, c2 in by_second[p]:
            key = (i, j, k, q)
            diff[key] = diff.get(key, 0) - c * c2
    return sorted({key[:3] for key, x in diff.items() if x})


def _first_failure(*axioms) -> tuple | None:
    """(name, data) for the least failure over the axioms (name, tables, pick):
    data is a failing triple read at the indices pick, and a tie goes to the
    earlier axiom.  None when every axiom holds."""
    bad = min(((tuple(t[x] for x in pick), index) for index, (_, tables, pick)
               in enumerate(axioms) for t in _associator(*tables)), default=None)
    return bad and (axioms[bad[1]][0], list(bad[0]))


def check_algebra(a: Algebra) -> CheckReport:
    """Associativity on all basis triples plus two-sided unit, if declared.

    Associativity is `_associator` on the integer numerators of `_products`
    (both sides carry the same denominator), grouped as in `_groups`.  The
    failing triple reported is the first in row-major order.  The unit is
    tested from the products with e_k: u e_k and e_k u against e_k, for the
    first failing k.
    """
    n, nz = a.dim, a._products[1]
    _, by_first, by_second = a._groups[False]
    bad = _associator(nz, nz, nz, nz, (by_first, by_second))
    if bad:
        i, j, k = bad[0]
        lhs = a.mul(a.sc[i][j], unit_vec(n, k))
        rhs = a.mul(unit_vec(n, i), a.sc[j][k])
        return CheckReport(
            "algebra-axioms", False,
            witness={"kind": "associativity", "triple": [i, j, k],
                     "left": [scalar_str(x) for x in lhs],
                     "right": [scalar_str(x) for x in rhs]})
    if a.unit is not None:
        d, u = a._products[0], a.unit
        for k in range(n):
            # u e_k and e_k u, times d, against d e_k
            for group in (by_second[k], by_first[k]):
                prod = {k: -d}
                for i, q, c in group:
                    if u[i]:
                        prod[q] = prod.get(q, 0) + u[i] * c
                if any(prod.values()):
                    return CheckReport(
                        "algebra-axioms", False,
                        witness={"kind": "unit", "basis_index": k})
    return CheckReport("algebra-axioms", True, details={"dim": n, "unital": a.is_unital})


class Bimodule(Frozen):
    def __init__(self, algebra: Algebra, dim: int, left: tuple[Mat, ...],
                 right: tuple[Mat, ...]):
        self.__dict__.update(algebra=algebra, dim=dim, left=tuple(mat(x) for x in left),
                             right=tuple(mat(x) for x in right))
        self._check()

    def _check(self):
        n, m = self.algebra.dim, self.dim
        for mx in (*self.left, *self.right):
            _rectangular(mx)
        for tab in (self.left, self.right):
            if len(tab) != n or any(len(mx) != m or any(len(r) != m for r in mx) for mx in tab):
                raise DimensionMismatch("action tables do not match dims")

    @cached_property
    def _actions(self) -> tuple[int, list[list[tuple]], list[list[tuple]]]:
        """(d, left, right): d the lcm of the denominators of both actions,
        left[k] the nonzero entries of left[k] as (c, j, d * left[k][c][j]),
        all ints, and right[k] likewise."""
        d = lcm(*(x.denominator for tab in (self.left, self.right) for mx in tab
                  for row in mx for x in row if type(x) is Fraction))
        return d, *([[(c, j, int(x * d)) for c, row in enumerate(mx)
                      for j, x in enumerate(row) if x] for mx in tab]
                    for tab in (self.left, self.right))

    @cached_property
    def _by_module(self) -> tuple[list, list]:
        """The left and right entries of `_actions` regrouped by the module
        index acted on: [j] holds (k, c, x) for each (c, j, x) in [k]."""
        groups = ([[] for _ in range(self.dim)], [[] for _ in range(self.dim)])
        for g, tab in zip(groups, self._actions[1:]):
            for k, entries in enumerate(tab):
                for c, j, x in entries:
                    g[j].append((k, c, x))
        return groups

    def lmat(self, x: Vec) -> Mat:
        return _action_matrix(self.left, x, self.dim)

    def rmat(self, x: Vec) -> Mat:
        return _action_matrix(self.right, x, self.dim)


def adjoint_bimodule(a: Algebra) -> Bimodule:
    """The algebra acting on itself by left and right multiplication."""
    return a._adjoint


def dual_bimodule(v: Bimodule) -> Bimodule:
    """Dual module: new left action is the transpose of the old right action,
    new right action the transpose of the old left action."""
    return _trusted(Bimodule, v.algebra, v.dim, tuple(transpose(m) for m in v.right),
                    tuple(transpose(m) for m in v.left))


def dual_regular_bimodule(a: Algebra) -> Bimodule:
    """The dual of the adjoint bimodule, i.e. the dual space with left action
    transpose-of-right-multiplication and right action transpose-of-left."""
    return a._dual_regular


def _action_entries(v: Bimodule) -> tuple[list, list]:
    """The left action as a table A x V -> V, entries (k, j, p, left[k][p][j]),
    and the right action as V x A -> V, entries (j, k, p, right[k][p][j])."""
    left = _entries(tuple(map(transpose, v.left)))
    return left, [(j, k, p, c) for k, j, p, c in _entries(tuple(map(transpose, v.right)))]


def check_bimodule(v: Bimodule) -> CheckReport:
    """The three bimodule axiom families on all basis pairs of the algebra,
    each an `_associator` whose triple holds the pair and a module index."""
    sc, (left, right) = _entries(v.algebra.sc), _action_entries(v)
    bad = _first_failure(("left-action", (sc, left, left, left), (0, 1)),
                         ("right-action", (right, right, right, sc), (1, 2)),
                         ("commuting-actions", (left, right, left, right), (0, 2)))
    if bad:
        return CheckReport("bimodule-axioms", False, witness={"kind": bad[0], "pair": bad[1]})
    return CheckReport("bimodule-axioms", True,
                       details={"algebra_dim": v.algebra.dim, "module_dim": v.dim})


def is_unital_bimodule(v: Bimodule) -> bool:
    """Whether the unit acts as the identity on both sides."""
    a = v.algebra
    if a.unit is None:
        return False
    eye = identity(v.dim)
    return v.lmat(a.unit) == eye and v.rmat(a.unit) == eye


def semidirect_product(a: Algebra, v: Bimodule) -> Algebra:
    """Algebra on A (+) V with (a+u)(b+w) = ab + (a.w + u.b).

    The result carries a unit exactly when A is unital and the unit acts as
    the identity on V; otherwise the unit slot is left empty.
    """
    if v.algebra is not a and v.algebra != a:
        raise DimensionMismatch("bimodule is not over the given algebra")
    n, m = a.dim, v.dim
    d = n + m
    sc = [[[0] * d for _ in range(d)] for _ in range(d)]
    left, right = _action_entries(v)
    for i, k, p, c in chain(_entries(a.sc), ((i, n + k, n + p, c) for i, k, p, c in left),
                            ((n + i, k, n + p, c) for i, k, p, c in right)):
        sc[i][k][p] = c
    unit = None
    if a.unit is not None and is_unital_bimodule(v):
        unit = tuple(a.unit) + zero_vec(m)
    names = tuple(a.basis) + tuple(f"v{i + 1}" for i in range(m))
    return make_algebra(d, sc, unit=unit, basis=names)


def unitization(sc) -> tuple[Algebra, "Augmentation"]:
    """Adjoin a unit to (possibly non-unital) structure constants; the
    augmentation is the projection onto the new unit coordinate."""
    inner = make_algebra(len(sc), sc, unit=None)
    rep = check_algebra(inner)
    if not rep.passed:
        raise NotAssociative(f"input multiplication is not associative: {dumps(rep.witness)}")
    alg = _adjoin_unit(inner.sc, "e")
    return alg, Augmentation(alg, unit_vec(alg.dim, 0))


def _adjoin_unit(sc, prefix: str) -> Algebra:
    """The algebra on u, <prefix>1, ..., <prefix>m with unit u and the
    m x m x m structure constants sc on the block after u."""
    m = len(sc)
    d = m + 1
    out = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        out[0][i][i] = out[i][0][i] = 1
    for i in range(m):
        for j in range(m):
            out[1 + i][1 + j][1:] = sc[i][j]
    names = ("u",) + tuple(f"{prefix}{i + 1}" for i in range(m))
    return make_algebra(d, out, unit=unit_vec(d, 0), basis=names)


class BilinearForm(Frozen):
    def __init__(self, algebra: Algebra, gram: Mat):
        d = self.__dict__
        d["algebra"], d["gram"] = algebra, mat(gram)
        self._check()

    def _check(self):
        g, n = _rectangular(self.gram), self.algebra.dim
        if len(g) != n or any(len(r) != n for r in g):
            raise DimensionMismatch("gram matrix does not match algebra dim")

    def value(self, x: Vec, y: Vec):
        acc = 0
        for xi, row in zip(x, self.gram, strict=True):
            if not xi:
                continue
            for gij, yj in zip(row, y, strict=True):
                if gij and yj:
                    acc += xi * gij * yj
        return acc

    def is_symmetric(self) -> bool:
        return self.gram == transpose(self.gram)


class Augmentation(Frozen):
    def __init__(self, algebra: Algebra, eps: Vec):
        self.__dict__.update(algebra=algebra, eps=vec(eps))
        self._check()

    def _check(self):
        if len(self.eps) != self.algebra.dim:
            raise DimensionMismatch("augmentation vector has wrong length")

    def apply(self, x: Vec):
        return sum(c * xi for c, xi in zip(self.eps, x) if c and xi)


def check_augmentation(a: Algebra, aug: Augmentation) -> CheckReport:
    """Multiplicativity on basis pairs and normalisation at the unit.

    The cyclic trace identity eps((xy)z) = eps((yz)x) needs no check of its
    own: by bilinearity, multiplicativity on basis pairs makes both sides
    eps_i eps_j eps_k on a basis triple, for any algebra, associative or not.
    """
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
    return CheckReport("augmentation", True)


def find_augmentations(a: Algebra) -> list[Augmentation]:
    """Exhaustive search for augmentations with entries in {0, 1, -1}."""
    from itertools import product as iproduct
    found = []
    for eps in iproduct((0, 1, -1), repeat=a.dim):
        aug = Augmentation(a, eps)
        if is_zero_vec(aug.eps):
            continue
        if check_augmentation(a, aug).passed:
            found.append(aug)
    return found


def matrix_algebra(n: int) -> Algebra:
    """Full matrix algebra on the elementary-matrix basis, row-major order."""
    if n < 1:
        raise DimensionMismatch("matrix algebra needs n >= 1")
    d = n * n
    idx = lambda a, b: a * n + b
    sc = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        sc[idx(a, b)][idx(c, e)][idx(a, e)] = 1
    unit = [0] * d
    for a in range(n):
        unit[idx(a, a)] = 1
    names = tuple(f"E{a + 1}{b + 1}" for a in range(n) for b in range(n))
    return make_algebra(d, sc, unit=tuple(unit), basis=names)
