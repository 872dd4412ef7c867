"""Dendriform algebras: two products whose sum is associative, the bimodule
they induce over the associated algebra, and the partially unital extension.

The unital extension stores the two products on the non-unital part only;
the unit rules v < 1 = v, 1 > v = v, v > 1 = 1 < v = 0 are applied when the
slanted products or the action tables are assembled.  The corner products
1 < 1 and 1 > 1 are not part of the structure; the action tables split the
unit as 1 < 1 -> 1, 1 > 1 -> 0, the only split whose square is itself.
"""

from __future__ import annotations

from .algebras import Algebra, Bimodule, _adjoin_unit, _first_failure, apply_table, make_algebra
from .constructions import semidirect_solutions
from .errors import DimensionMismatch, NotDendriform, UndefinedProduct
from .linalg import Frozen, Scalar, Vec, _entries, identity, transpose, vec, vec_add
from .operators import LinearMap
from .report import CheckReport, dumps


class Dendriform(Frozen):
    def __init__(self, dim: int, prec: tuple, succ: tuple):
        # prec[i][j] = coordinates of e_i < e_j, succ[i][j] = those of e_i > e_j
        self.__dict__.update(dim=dim, prec=tuple(tuple(vec(v) for v in row) for row in prec),
                             succ=tuple(tuple(vec(v) for v in row) for row in succ))
        self._check()

    def _check(self):
        m = self.dim
        for field in ("prec", "succ"):
            tab = getattr(self, field)
            if len(tab) != m or any(len(row) != m for row in tab) or any(
                    len(v) != m for row in tab for v in row):
                raise DimensionMismatch(f"{field} table is not {m}x{m}x{m}")

    def left_product(self, x: Vec, y: Vec) -> Vec:
        return apply_table(self.prec, x, y)

    def right_product(self, x: Vec, y: Vec) -> Vec:
        return apply_table(self.succ, x, y)


def check_dendriform(d: Dendriform) -> CheckReport:
    """The three splitting axioms on all basis triples, each an
    `_associator` of the tables < and >, and of * as their concatenation."""
    prec, succ = _entries(d.prec), _entries(d.succ)
    star, ijk = prec + succ, (0, 1, 2)
    bad = _first_failure((1, (prec, prec, prec, star), ijk), (2, (succ, prec, succ, prec), ijk),
                         (3, (star, succ, succ, succ), ijk))
    if bad:
        return CheckReport("dendriform-axioms", False, witness={"axiom": bad[0], "triple": bad[1]})
    return CheckReport("dendriform-axioms", True)


def _require_dendriform(d: Dendriform):
    rep = check_dendriform(d)
    if not rep.passed:
        raise NotDendriform(dumps(rep.witness))


def associated_algebra(d: Dendriform) -> Algebra:
    """The (generally non-unital) algebra with product the sum of the two."""
    _require_dendriform(d)
    sc = tuple(tuple(map(vec_add, p, s)) for p, s in zip(d.prec, d.succ))
    return make_algebra(d.dim, sc, unit=None)


def succ_prec_bimodule(d: Dendriform) -> Bimodule:
    """The associated algebra acting on the dendriform space by the right-
    slanted product on the left and the left-slanted product on the right."""
    return Bimodule(associated_algebra(d), d.dim, tuple(map(transpose, d.succ)),
                    tuple(map(transpose, zip(*d.prec))))


class UnitalDendriform(Frozen):
    def __init__(self, plus: Dendriform, algebra: Algebra):
        # algebra: the unital associated algebra, unit first in the basis
        self.__dict__.update(plus=plus, algebra=algebra)

    @property
    def dim(self) -> int:
        return self.plus.dim + 1

    def _split(self, x: Vec) -> tuple[Scalar, Vec]:
        return x[0], tuple(x[1:])

    def left_product(self, x: Vec, y: Vec) -> Vec:
        """x < y with the unit rules; undefined on unit x unit."""
        cx, px = self._split(x)
        cy, py = self._split(y)
        if cx and cy:
            raise UndefinedProduct("unit < unit is not defined")
        inner = self.plus.left_product(px, py)
        # x+ < 1 = x+ contributes, 1 < y+ = 0
        return (0,) + tuple(v + cy * w for v, w in zip(inner, px))

    def right_product(self, x: Vec, y: Vec) -> Vec:
        """x > y with the unit rules; undefined on unit x unit."""
        cx, px = self._split(x)
        cy, py = self._split(y)
        if cx and cy:
            raise UndefinedProduct("unit > unit is not defined")
        inner = self.plus.right_product(px, py)
        # 1 > y+ = y+ contributes, x+ > 1 = 0
        return (0,) + tuple(v + cx * w for v, w in zip(inner, py))


def unital_extension(d: Dendriform) -> tuple[Algebra, UnitalDendriform]:
    """Adjoin a star-unit to the associated algebra of a dendriform algebra."""
    alg = _adjoin_unit(associated_algebra(d).sc, "a")
    return alg, UnitalDendriform(d, alg)


def action_bimodule(u: UnitalDendriform) -> Bimodule:
    """The unital associated algebra acting on itself through the two
    slanted products, with the unit corner split as 1 < 1 -> 1, 1 > 1 -> 0."""
    m = u.plus.dim
    d = m + 1
    left = [[[int(p == q and p > 0) for q in range(d)] for p in range(d)]]
    right = [[[int(p == q) for q in range(d)] for p in range(d)]]
    left += ([[0] * d for _ in range(d)] for _ in range(m))
    right += ([[0] * d for _ in range(d)] for _ in range(m))
    for k, j, p, c in _entries(u.plus.succ):
        left[1 + k][1 + p][1 + j] = c
    for j, k, p, c in _entries(u.plus.prec):
        right[1 + k][1 + p][1 + j] = c
    return Bimodule(u.algebra, d, left, right)


def dendriform_solutions(u: UnitalDendriform, beta: LinearMap, lam: Scalar,
                         mu: Scalar):
    """Solutions on the semi-direct product of the unital associated algebra
    with its slanted-action module, from the identity operator and a
    balanced map off the dual."""
    d = u.plus.dim + 1
    alpha = LinearMap(identity(d))
    return semidirect_solutions(u.algebra, action_bimodule(u), alpha, beta,
                                lam, mu)
