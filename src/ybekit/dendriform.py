"""Dendriform algebras: two products whose sum is associative, the bimodule
they induce over the associated algebra, and the partially unital extension.

The unital extension stores the two products on the non-unital part only;
the unit rules v < 1 = v, 1 > v = v, v > 1 = 1 < v = 0 are applied when the
star product or the action tables are assembled.  The corner products
1 < 1 and 1 > 1 are not part of the structure; the action tables split the
unit as 1 < 1 -> 1, 1 > 1 -> 0, the only split whose square is itself.
"""

from __future__ import annotations

from .algebras import Algebra, Bimodule, _adjoin_unit, apply_table, make_algebra
from .errors import DimensionMismatch, NotDendriform, UndefinedProduct
from .linalg import Frozen, Scalar, Vec, unit_vec, vec
from .operators import LinearMap
from .report import CheckReport


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

    def star(self, x: Vec, y: Vec) -> Vec:
        return tuple(p + s for p, s in zip(self.left_product(x, y),
                                           self.right_product(x, y)))


def check_dendriform(d: Dendriform) -> CheckReport:
    """The three splitting axioms on all basis triples."""
    m = d.dim
    for i in range(m):
        ei = unit_vec(m, i)
        for j in range(m):
            ej = unit_vec(m, j)
            for k in range(m):
                ek = unit_vec(m, k)
                ax1_l = d.left_product(d.prec[i][j], ek)
                ax1_r = d.left_product(ei, d.star(ej, ek))
                if ax1_l != ax1_r:
                    return CheckReport("dendriform-axioms", False,
                                       witness={"axiom": 1, "triple": [i, j, k]})
                ax2_l = d.left_product(d.succ[i][j], ek)
                ax2_r = d.right_product(ei, d.prec[j][k])
                if ax2_l != ax2_r:
                    return CheckReport("dendriform-axioms", False,
                                       witness={"axiom": 2, "triple": [i, j, k]})
                ax3_l = d.right_product(d.star(ei, ej), ek)
                ax3_r = d.right_product(ei, d.succ[j][k])
                if ax3_l != ax3_r:
                    return CheckReport("dendriform-axioms", False,
                                       witness={"axiom": 3, "triple": [i, j, k]})
    return CheckReport("dendriform-axioms", True)


def _require_dendriform(d: Dendriform):
    rep = check_dendriform(d)
    if not rep.passed:
        raise NotDendriform(str(rep.witness))


def associated_algebra(d: Dendriform) -> Algebra:
    """The (generally non-unital) algebra with product the sum of the two."""
    _require_dendriform(d)
    m = d.dim
    sc = tuple(tuple(tuple(p + s for p, s in zip(d.prec[i][j], d.succ[i][j]))
                     for j in range(m)) for i in range(m))
    return make_algebra(m, sc, unit=None)


def succ_prec_bimodule(d: Dendriform) -> Bimodule:
    """The associated algebra acting on the dendriform space by the right-
    slanted product on the left and the left-slanted product on the right."""
    alg = associated_algebra(d)
    m = d.dim
    left = tuple(
        tuple(tuple(d.succ[k][j][p] for j in range(m)) for p in range(m))
        for k in range(m))
    right = tuple(
        tuple(tuple(d.prec[j][k][p] for j in range(m)) for p in range(m))
        for k in range(m))
    return Bimodule(alg, m, left, right)


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
    left0 = tuple(tuple(1 if (p == q and p > 0) else 0 for q in range(d))
                  for p in range(d))
    left = [left0]
    for k in range(m):
        rows = [[0] * d for _ in range(d)]
        for j in range(m):
            for p, c in enumerate(u.plus.succ[k][j]):
                rows[1 + p][1 + j] = c
        left.append(tuple(tuple(r) for r in rows))
    right0 = tuple(unit_vec(d, p) for p in range(d))
    right = [right0]
    for k in range(m):
        rows = [[0] * d for _ in range(d)]
        for j in range(m):
            for p, c in enumerate(u.plus.prec[j][k]):
                rows[1 + p][1 + j] = c
        right.append(tuple(tuple(r) for r in rows))
    return Bimodule(u.algebra, d, tuple(left), tuple(right))


def dendriform_solutions(u: UnitalDendriform, beta: LinearMap, lam: Scalar,
                         mu: Scalar):
    """Solutions on the semi-direct product of the unital associated algebra
    with its slanted-action module, from the identity operator and a
    balanced map off the dual."""
    from .constructions import semidirect_solutions
    from .linalg import identity
    d = u.plus.dim + 1
    alpha = LinearMap(identity(d))
    return semidirect_solutions(u.algebra, action_bimodule(u), alpha, beta,
                                lam, mu)
