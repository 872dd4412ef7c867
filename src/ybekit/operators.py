"""Operator forms: the maps induced by a tensor, O-operators with general
weights (scalar, product, one-sided twists), Rota-Baxter operators and
systems, and the equivalence suites tying them to the tensor equation.

A LinearMap with domain "dual" sends dual-basis coordinates to primal
coordinates; for a tensor r the induced map pairs the first slot against the
dual argument, its transpose-companion pairs the second slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import Algebra, Bimodule, dual_regular_bimodule
from .errors import DimensionMismatch, NotInvariant, NotSymmetric, PreconditionViolated
from .linalg import (
    Mat,
    Scalar,
    Vec,
    is_zero_mat,
    is_zero_vec,
    mat,
    mat_vec,
    scalar_str,
    transpose,
    unit_vec,
    vec_dot,
    zero_vec,
)
from .report import CheckReport
from .tensors import Tensor2
from .ybe import (
    YbeInstance,
    extended_symmetrizer,
    is_invariant,
    nhacybe_residual,
)


@dataclass(frozen=True)
class LinearMap:
    matrix: Mat
    domain: str = "primal"

    def __post_init__(self):
        object.__setattr__(self, "matrix", mat(self.matrix))
        if self.domain not in ("primal", "dual"):
            raise DimensionMismatch("domain must be 'primal' or 'dual'")

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    def is_zero(self) -> bool:
        return is_zero_mat(self.matrix)


def sharp(r: Tensor2) -> LinearMap:
    """Map from dual coordinates pairing the first tensor slot."""
    return LinearMap(transpose(r.coeff), domain="dual")


def tsharp(r: Tensor2) -> LinearMap:
    """Map from dual coordinates pairing the second tensor slot."""
    return LinearMap(r.coeff, domain="dual")


def tensor_of_sharp(m: LinearMap | Mat) -> Tensor2:
    """Inverse of `sharp`: rebuild the tensor from a dual-to-primal map."""
    matrix = m.matrix if isinstance(m, LinearMap) else mat(m)
    return Tensor2(len(matrix), transpose(matrix))


def dual_map(m: LinearMap) -> LinearMap:
    """Transpose: for P from dual coordinates this is the map with
    <P*(a), b> = <a, P(b)>, again from dual coordinates."""
    return LinearMap(transpose(m.matrix), domain=m.domain)


ProductTable = tuple  # table[i][j] = module coordinate vector


def apply_table(table: ProductTable, x: Vec, y: Vec) -> Vec:
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


@dataclass(frozen=True)
class BimoduleAlgebra:
    bimodule: Bimodule
    product: ProductTable

    def __post_init__(self):
        m = self.bimodule.dim
        tab = tuple(tuple(tuple(v) for v in row) for row in self.product)
        if len(tab) != m or any(len(row) != m for row in tab) or any(
                len(v) != m for row in tab for v in row):
            raise DimensionMismatch("product table does not match module dim")
        object.__setattr__(self, "product", tab)

    def mul(self, x: Vec, y: Vec) -> Vec:
        return apply_table(self.product, x, y)


def check_bimodule_algebra(b: BimoduleAlgebra) -> CheckReport:
    """Associativity of the module product plus the three compatibility
    identities with the bimodule actions, on basis elements."""
    v = b.bimodule
    m = v.dim
    n = v.algebra.dim
    for i in range(m):
        for j in range(m):
            pij = b.product[i][j]
            for k in range(m):
                ek = unit_vec(m, k)
                if b.mul(pij, ek) != b.mul(unit_vec(m, i), b.product[j][k]):
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
                if mat_vec(lk, pij) != b.mul(li, unit_vec(m, j)):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "left-compat",
                                                "data": [k, i, j]})
                if mat_vec(rk, pij) != b.mul(unit_vec(m, i), rj):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "right-compat",
                                                "data": [k, i, j]})
                if b.mul(ri, unit_vec(m, j)) != b.mul(unit_vec(m, i), lj):
                    return CheckReport("bimodule-algebra", False,
                                       witness={"kind": "middle-compat",
                                                "data": [k, i, j]})
    return CheckReport("bimodule-algebra", True)


def regular_bimodule_algebra(a: Algebra) -> BimoduleAlgebra:
    """The algebra acting on itself with its own multiplication as product."""
    from .algebras import adjoint_bimodule
    return BimoduleAlgebra(adjoint_bimodule(a), a.sc)


def invariant_dual_product(a: Algebra, s: Tensor2) -> BimoduleAlgebra:
    """Product on the dual space induced by a symmetric invariant tensor:
    the dual vector picks up a right action by the image of its partner."""
    if not s.is_symmetric():
        raise NotSymmetric("tensor must be symmetric")
    if not is_invariant(a, s).passed:
        raise NotInvariant("tensor must be invariant")
    n = a.dim
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = [0] * n
            for k, c in enumerate(s.coeff[j]):
                if not c:
                    continue
                lk = a._left[k]
                for p in range(n):
                    if lk[i][p]:
                        entry[p] += c * lk[i][p]
            row.append(tuple(entry))
        table.append(tuple(row))
    return BimoduleAlgebra(dual_regular_bimodule(a), tuple(table))


def tensor_from_dual_product(b: BimoduleAlgebra) -> Tensor2:
    """Rebuild the symmetric tensor from a dual-space product by pairing
    against the unit."""
    a = b.bimodule.algebra
    u = a.require_unit()
    n = a.dim
    return Tensor2(n, tuple(
        tuple(vec_dot(b.product[l][k], u) for l in range(n)) for k in range(n)))


@dataclass(frozen=True)
class WeightOp:
    kind: str
    lam: Scalar = 0
    table: ProductTable | None = None
    twist: Mat | None = None

    @classmethod
    def zero(cls) -> "WeightOp":
        return cls("zero")

    @classmethod
    def scalar(cls, lam: Scalar, table: ProductTable) -> "WeightOp":
        return cls("scalar", lam=lam, table=table)

    @classmethod
    def product(cls, table: ProductTable) -> "WeightOp":
        return cls("scalar", lam=1, table=table)

    @classmethod
    def right_twist(cls, twist: Mat) -> "WeightOp":
        return cls("right_twist", twist=mat(twist))

    @classmethod
    def left_twist(cls, twist: Mat) -> "WeightOp":
        return cls("left_twist", twist=mat(twist))


def _weight_term(w: WeightOp, v_mod: Bimodule, u: Vec, v: Vec) -> Vec:
    if w.kind == "zero":
        return zero_vec(v_mod.dim)
    if w.kind == "scalar":
        if w.lam == 0:
            return zero_vec(v_mod.dim)
        return tuple(w.lam * x for x in apply_table(w.table, u, v))
    if w.kind == "right_twist":
        return mat_vec(v_mod.rmat(mat_vec(w.twist, v)), u)
    if w.kind == "left_twist":
        return mat_vec(v_mod.lmat(mat_vec(w.twist, u)), v)
    raise DimensionMismatch(f"unknown weight kind {w.kind}")


ResidualTable = tuple  # table[i][j] = algebra coordinate vector


def o_operator_residual(a: Algebra, v: Bimodule, alpha: LinearMap,
                        weight: WeightOp) -> ResidualTable:
    """Defect of alpha(u) alpha(w) = alpha(alpha(u).w) + alpha(u.alpha(w))
    + alpha(weight(u, w)) on all module basis pairs."""
    m = v.dim
    am = alpha.matrix
    if len(am) != a.dim or (am and len(am[0]) != m):
        raise DimensionMismatch("operator shape does not match module -> algebra")
    cols = transpose(am) if am else ()
    out = []
    for i in range(m):
        ei = unit_vec(m, i)
        ai = cols[i] if cols else zero_vec(a.dim)
        row = []
        for j in range(m):
            ej = unit_vec(m, j)
            aj = cols[j] if cols else zero_vec(a.dim)
            t0 = a.mul(ai, aj)
            t1 = mat_vec(am, mat_vec(v.lmat(ai), ej))
            t2 = mat_vec(am, mat_vec(v.rmat(aj), ei))
            tw = mat_vec(am, _weight_term(weight, v, ei, ej))
            row.append(tuple(
                t0[p] - t1[p] - t2[p] - tw[p] for p in range(a.dim)))
        out.append(tuple(row))
    return tuple(out)


def residual_is_zero(table: ResidualTable) -> bool:
    return all(is_zero_vec(v) for row in table for v in row)


def residual_witness(table: ResidualTable):
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not is_zero_vec(v):
                return {"pair": [i, j], "defect": [scalar_str(x) for x in v]}
    return None


def rota_baxter_residual(a: Algebra, p: LinearMap, lam: Scalar) -> ResidualTable:
    """Defect of P(x)P(y) = P(P(x)y) + P(xP(y)) + lam P(xy) on basis pairs."""
    n = a.dim
    pm = p.matrix
    if len(pm) != n or len(pm[0]) != n:
        raise DimensionMismatch("operator is not an endomorphism of the algebra")
    cols = transpose(pm)
    out = []
    for i in range(n):
        ei = unit_vec(n, i)
        pi = cols[i]
        row = []
        for j in range(n):
            pj = cols[j]
            t0 = a.mul(pi, pj)
            t1 = mat_vec(pm, a.mul(pi, unit_vec(n, j)))
            t2 = mat_vec(pm, a.mul(ei, pj))
            d = [t0[k] - t1[k] - t2[k] for k in range(n)]
            if lam != 0:
                t3 = mat_vec(pm, a.sc[i][j])
                d = [d[k] - lam * t3[k] for k in range(n)]
            row.append(tuple(d))
        out.append(tuple(row))
    return tuple(out)


def rb_system_residual(a: Algebra, p: LinearMap, s: LinearMap
                       ) -> tuple[ResidualTable, ResidualTable]:
    """Defects of P(x)P(y) = P(P(x)y + xS(y)) and S(x)S(y) = S(P(x)y + xS(y))."""
    n = a.dim
    pm, sm = p.matrix, s.matrix
    pc, sc_ = transpose(pm), transpose(sm)
    out1, out2 = [], []
    for i in range(n):
        ei = unit_vec(n, i)
        row1, row2 = [], []
        for j in range(n):
            ej = unit_vec(n, j)
            mixed = tuple(x + y for x, y in zip(a.mul(pc[i], ej), a.mul(ei, sc_[j])))
            d1 = tuple(x - y for x, y in zip(a.mul(pc[i], pc[j]), mat_vec(pm, mixed)))
            d2 = tuple(x - y for x, y in zip(a.mul(sc_[i], sc_[j]), mat_vec(sm, mixed)))
            row1.append(d1)
            row2.append(d2)
        out1.append(tuple(row1))
        out2.append(tuple(row2))
    return tuple(out1), tuple(out2)


def _lstar_row(a: Algebra, y: Vec, i: int) -> Vec:
    """Coordinates of the i-th dual basis vector right-acted by y."""
    lm = a.left_matrix(y)
    return tuple(lm[i][q] for q in range(a.dim))


def _rstar_row(a: Algebra, y: Vec, j: int) -> Vec:
    """Coordinates of the j-th dual basis vector left-acted by y."""
    rm = a.right_matrix(y)
    return tuple(rm[j][q] for q in range(a.dim))


def _suite_report(name: str, verdicts: dict, **extra) -> CheckReport:
    vals = list(verdicts.values())
    agree = all(v == vals[0] for v in vals)
    details = {"verdicts": verdicts, "all_pass": all(vals)}
    details.update(extra)
    return CheckReport(name, agree,
                       witness=None if agree else {"verdicts": verdicts},
                       details=details)


def operator_form_suite(inst: YbeInstance, r: Tensor2) -> CheckReport:
    """Five equivalent characterisations of one tensor: the equation itself,
    the two dual-basis operator identities, and the two twisted O-operator
    forms.  Passing means all five verdicts coincide."""
    a, mu = inst.algebra, inst.mu
    n = a.dim
    u = a.require_unit() if mu != 0 else (a.unit or zero_vec(n))
    rs = transpose(r.coeff)
    rt = r.coeff
    sbar = extended_symmetrizer(inst, r)
    sb = transpose(sbar.coeff)
    rs_cols = transpose(rs)
    rt_cols = transpose(rt)

    verdict_a = nhacybe_residual(inst, r).is_zero()

    ok_b = True
    for i in range(n):
        ai = rs_cols[i]
        for j in range(n):
            bj = rs_cols[j]
            t0 = a.mul(ai, bj)
            t1 = mat_vec(rs, _lstar_row(a, rt_cols[j], i))
            t2 = mat_vec(rs, _rstar_row(a, ai, j))
            d = tuple(t0[k] + t1[k] - t2[k] - mu * u[j] * ai[k] for k in range(n))
            if not is_zero_vec(d):
                ok_b = False
                break
        if not ok_b:
            break

    dualmod = dual_regular_bimodule(a)
    neg_sb = tuple(tuple(-x for x in row) for row in sb)
    verdict_c = residual_is_zero(o_operator_residual(
        a, dualmod, LinearMap(rs, "dual"), WeightOp.right_twist(neg_sb)))

    ok_d = True
    for i in range(n):
        ai = rt_cols[i]
        for j in range(n):
            bj = rt_cols[j]
            t0 = a.mul(ai, bj)
            t1 = mat_vec(rt, _lstar_row(a, rt_cols[j], i))
            t2 = mat_vec(rt, _rstar_row(a, rs_cols[i], j))
            d = tuple(t0[k] - t1[k] + t2[k] - mu * u[i] * bj[k] for k in range(n))
            if not is_zero_vec(d):
                ok_d = False
                break
        if not ok_d:
            break

    verdict_e = residual_is_zero(o_operator_residual(
        a, dualmod, LinearMap(rt, "dual"), WeightOp.left_twist(neg_sb)))

    return _suite_report("operator-form-suite", {
        "tensor_equation": verdict_a,
        "first_slot_identity": ok_b,
        "first_slot_right_twist": verdict_c,
        "second_slot_identity": ok_d,
        "second_slot_left_twist": verdict_e,
    })


def invariant_operator_suite(inst: YbeInstance, r: Tensor2) -> CheckReport:
    """With an invariant symmetrizer the twisted forms collapse to plain
    weighted O-operators: weight zero when the symmetrizer vanishes, weight
    -1 against the induced dual product otherwise."""
    a = inst.algebra
    sbar = extended_symmetrizer(inst, r)
    inv = is_invariant(a, sbar)
    if not inv.passed:
        raise PreconditionViolated("invariant-symmetrizer", witness=inv.witness)
    dualmod = dual_regular_bimodule(a)
    if sbar.is_zero():
        weight = WeightOp.zero()
        branch = "weight-0"
    else:
        circ = invariant_dual_product(a, sbar)
        weight = WeightOp.scalar(-1, circ.product)
        branch = "weight--1"
    verdict_a = nhacybe_residual(inst, r).is_zero()
    verdict_b = residual_is_zero(o_operator_residual(
        a, dualmod, sharp(r), weight))
    verdict_c = residual_is_zero(o_operator_residual(
        a, dualmod, tsharp(r), weight))
    return _suite_report("invariant-operator-suite", {
        "tensor_equation": verdict_a,
        "first_slot_operator": verdict_b,
        "second_slot_operator": verdict_c,
    }, branch=branch)


def dual_operator_suite(a: Algebra, b: BimoduleAlgebra, p: LinearMap,
                        mu: Scalar) -> CheckReport:
    """From a dual-space product and a compatible map to four statements:
    the map and its dual are weighted O-operators iff the two tensors read
    off the map solve the equation."""
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
    s_sharp = sharp(s)
    for i in range(n):
        si = s_sharp.apply(unit_vec(n, i))
        for k in range(n):
            prod = a.mul(si, unit_vec(n, k))
            for j in range(n):
                if prod[j] != b.product[j][i][k]:
                    raise PreconditionViolated(
                        "product-pairing", witness={"data": [i, j, k]})
    pm = p.matrix
    lhs = tuple(tuple(pm[m_][k] + pm[k][m_] for k in range(n)) for m_ in range(n))
    rhs = tuple(tuple(s_sharp.matrix[m_][k] + mu * u[m_] * u[k] for k in range(n))
                for m_ in range(n))
    if lhs != rhs:
        raise PreconditionViolated(
            "symmetrizer-relation",
            witness={"defect": [[scalar_str(x - y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(lhs, rhs)]})
    if s.is_zero():
        weight = WeightOp.zero()
        branch = "weight-0"
    else:
        weight = WeightOp.scalar(-1, b.product)
        branch = "weight--1"
    inst = YbeInstance(a, mu)
    verdicts = {
        "map_operator": residual_is_zero(
            o_operator_residual(a, b.bimodule, p, weight)),
        "dual_map_operator": residual_is_zero(
            o_operator_residual(a, b.bimodule, dual_map(p), weight)),
        "first_slot_tensor": nhacybe_residual(inst, tensor_of_sharp(p)).is_zero(),
        "second_slot_tensor": nhacybe_residual(
            inst, Tensor2(n, p.matrix)).is_zero(),
    }
    return _suite_report("dual-operator-suite", verdicts, branch=branch)
