"""Producing solutions from Rota-Baxter and O-operators (directly, and in
semi-direct products), and extracting Rota-Baxter operators from solutions
in augmented algebras."""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    Algebra,
    Augmentation,
    Bimodule,
    adjoint_bimodule,
    dual_bimodule,
    is_unital_bimodule,
    semidirect_product,
)
from .errors import (
    Degenerate,
    DimensionMismatch,
    NotInvariant,
    NotSymmetric,
    PreconditionViolated,
    SingularMatrix,
)
from .linalg import (
    Mat,
    Scalar,
    identity,
    invert,
    is_zero_mat,
    mat_mul,
    mat_scale,
    scalar_str,
    transpose,
    vec_scale,
)
from .operators import (
    LinearMap,
    WeightOp,
    _operator_defect,
    o_operator_residual,
    residual_is_zero,
    residual_witness,
    rota_baxter_residual,
)
from .report import CheckReport
from .tensors import Tensor2, t2_zero
from .ybe import (
    YbeInstance,
    extended_symmetrizer,
    is_invariant,
    nhacybe_residual,
    unit_square,
)


def solutions_from_rb(a: Algebra, s: Tensor2, p: LinearMap, lam: Scalar,
                      mu: Scalar) -> tuple[Tensor2, Tensor2]:
    """Push a symmetric invariant tensor through a Rota-Baxter operator of
    weight lam, slot by slot.  Requires the compatibility identity between
    the operator, the tensor and the unit to hold exactly."""
    if not s.is_symmetric():
        raise NotSymmetric("tensor must be symmetric")
    if not is_invariant(a, s).passed:
        raise NotInvariant("tensor must be invariant")
    rb = rota_baxter_residual(a, p, lam)
    if not residual_is_zero(rb):
        raise PreconditionViolated("rota-baxter", witness=residual_witness(rb))
    ss = transpose(s.coeff)
    pm = p.matrix
    lhs = [[x + y for x, y in zip(r1, r2)]
           for r1, r2 in zip(mat_mul(ss, transpose(pm)), mat_mul(pm, ss))]
    uo = unit_square(a).coeff if mu != 0 else t2_zero(a.dim).coeff  # no unit needed at mu = 0
    rhs = [[-lam * ss[i][j] + mu * uo[i][j] for j in range(a.dim)]
           for i in range(a.dim)]
    if lhs != rhs:
        raise PreconditionViolated(
            "operator-compatibility",
            witness={"defect": [[scalar_str(x - y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(lhs, rhs)]})
    return _push_forward(s, pm)


def _push_forward(s: Tensor2, pm: Mat) -> tuple[Tensor2, Tensor2]:
    """(P s, s P^t): the tensor s pushed through the operator with matrix pm
    in its first slot and in its second."""
    return Tensor2(s.dim, mat_mul(pm, s.coeff)), Tensor2(s.dim, mat_mul(s.coeff, transpose(pm)))


def rb_from_solution(a: Algebra, s: Tensor2, r: Tensor2, lam: Scalar,
                     mu: Scalar) -> tuple[LinearMap, LinearMap]:
    """Invert a nondegenerate symmetric invariant tensor to turn a solution
    into a pair of Rota-Baxter operators of weight lam."""
    if not s.is_symmetric():
        raise NotSymmetric("tensor must be symmetric")
    if not is_invariant(a, s).passed:
        raise NotInvariant("tensor must be invariant")
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
    res = nhacybe_residual(YbeInstance(a, mu), r)
    if not res.is_zero():
        raise PreconditionViolated("tensor-equation", witness=res.first_nonzero())
    p = LinearMap(mat_mul(transpose(r.coeff), s_inv))
    pt = LinearMap(mat_mul(r.coeff, s_inv))
    return p, pt


@dataclass(frozen=True)
class LiftedOperator:
    algebra: Algebra  # the semi-direct product the lift lives on
    hat: LinearMap
    source: LinearMap
    lam: Scalar


def lift_o_operator(a: Algebra, v: Bimodule, alpha: LinearMap,
                    lam: Scalar) -> LiftedOperator:
    """Lift a module-to-algebra map to the semi-direct product, acting as
    (x, u) -> (alpha(u), -lam u)."""
    n, m = a.dim, v.dim
    am = alpha.matrix
    if len(am) != n or (am and len(am[0]) != m):
        raise DimensionMismatch("operator shape does not match module -> algebra")
    rows = []
    for i in range(n):
        rows.append((0,) * n + tuple(am[i]))
    for j in range(m):
        rows.append((0,) * n + tuple(-lam if k == j else 0 for k in range(m)))
    return LiftedOperator(semidirect_product(a, v), LinearMap(tuple(rows)),
                          alpha, lam)


def check_balanced_hom(a: Algebra, v: Bimodule, beta: LinearMap) -> CheckReport:
    """Whether a module-to-algebra map intertwines both actions and balances
    the two module-valued pairings."""
    n, m = a.dim, v.dim
    bm = beta.matrix
    if len(bm) != n or (bm and len(bm[0]) != m):
        raise DimensionMismatch("map shape does not match module -> algebra")
    for k in range(n):
        lk, rk = a._left[k], a._right[k]
        if mat_mul(bm, v.left[k]) != mat_mul(lk, bm):
            return CheckReport("balanced-homomorphism", False,
                               witness={"kind": "left-intertwine", "basis_index": k})
        if mat_mul(bm, v.right[k]) != mat_mul(rk, bm):
            return CheckReport("balanced-homomorphism", False,
                               witness={"kind": "right-intertwine", "basis_index": k})
    cols = transpose(bm) if bm else ()
    for i in range(m):
        bi = cols[i] if cols else ()
        li = v.lmat(bi)
        for j in range(m):
            bj = cols[j]
            lhs = tuple(li[p][j] for p in range(m))
            rj = v.rmat(bj)
            rhs = tuple(rj[p][i] for p in range(m))
            if lhs != rhs:
                return CheckReport("balanced-homomorphism", False,
                                   witness={"kind": "balance", "pair": [i, j]})
    return CheckReport("balanced-homomorphism", True)


def hom_tensor(a: Algebra, v: Bimodule, beta: LinearMap
               ) -> tuple[Algebra, Tensor2]:
    """Embed a module-to-algebra map into the square of the semi-direct
    product with the dual module (algebra part first) and symmetrize."""
    n, m = a.dim, v.dim
    bm = beta.matrix
    amb = semidirect_product(a, dual_bimodule(v))
    d = n + m
    coeff = [[0] * d for _ in range(d)]
    for i in range(n):
        for j in range(m):
            if bm[i][j]:
                coeff[i][n + j] += bm[i][j]
                coeff[n + j][i] += bm[i][j]
    return amb, Tensor2(d, tuple(tuple(row) for row in coeff))


@dataclass(frozen=True)
class SemidirectSolutions:
    algebra: Algebra
    r1: Tensor2
    r2: Tensor2
    s: Tensor2
    lam: Scalar
    mu: Scalar


def semidirect_solutions(a: Algebra, v: Bimodule, alpha: LinearMap,
                         beta: LinearMap, lam: Scalar, mu: Scalar
                         ) -> SemidirectSolutions:
    """Combine a weight-zero O-operator on a module with a balanced map on
    the dual module into two solutions on the semi-direct product.

    alpha maps the module to the algebra, beta maps the dual module to the
    algebra; the two must add up to mu times the unit pairing.
    """
    n = a.dim
    res = o_operator_residual(a, v, alpha, WeightOp.zero())
    if not residual_is_zero(res):
        raise PreconditionViolated("weight-zero-operator",
                                   witness=residual_witness(res))
    dual_v = dual_bimodule(v)
    bal = check_balanced_hom(a, dual_v, beta)
    if not bal.passed:
        raise PreconditionViolated("balanced-homomorphism", witness=bal.witness)
    am, bm = alpha.matrix, beta.matrix
    compat = mat_mul(bm, transpose(am))
    compat = tuple(tuple(x + y for x, y in zip(r1, r2))
                   for r1, r2 in zip(compat, mat_mul(am, transpose(bm))))
    expect = unit_square(a).coeff if mu != 0 else t2_zero(n).coeff  # no unit needed at mu = 0
    defect = tuple(tuple(x - mu * y for x, y in zip(r1, r2))
                   for r1, r2 in zip(compat, expect))
    if not is_zero_mat(defect):
        raise PreconditionViolated(
            "unit-compatibility",
            witness={"defect": [[scalar_str(x) for x in row] for row in defect]})
    if mu != 0 and not (a.is_unital and is_unital_bimodule(v)):
        raise PreconditionViolated("unital-module")
    # beta goes out of the dual module, so its tensor lives on A x| V itself
    hat_alg, s_tilde = hom_tensor(a, dual_v, beta)
    hat = lift_o_operator(a, v, alpha, lam).hat
    return SemidirectSolutions(hat_alg, *_push_forward(s_tilde, hat.matrix), s_tilde, lam, mu)


def extract_rb_pair(a: Algebra, aug: Augmentation, r: Tensor2
                    ) -> tuple[LinearMap, LinearMap]:
    """The two operators read off a tensor in an augmented algebra by
    pairing one slot against the augmentation of a product."""
    n = a.dim
    if r.dim != n:
        raise DimensionMismatch("tensor dim does not match algebra dim")
    e = tuple(tuple(aug.apply(a.sc[i][k]) for k in range(n)) for i in range(n))
    p = mat_mul(transpose(r.coeff), e)
    pp = mat_mul(r.coeff, e)
    return LinearMap(p), LinearMap(pp)


def extraction_identity_check(a: Algebra, aug: Augmentation,
                              sbar: Tensor2) -> CheckReport:
    """Whether pairing the first slot of sbar against the augmentation
    reproduces the identity map."""
    p, _ = extract_rb_pair(a, aug, sbar)
    if p.matrix == identity(a.dim):
        return CheckReport("extraction-identity", True)
    defect = tuple(tuple(x - int(i == j) for j, x in enumerate(row))
                   for i, row in enumerate(p.matrix))
    return CheckReport("extraction-identity", False,
                       witness={"defect": [[scalar_str(x) for x in row]
                                           for row in defect]})


def pair_identity_residual(a: Algebra, aug: Augmentation, r: Tensor2,
                           mu: Scalar):
    """Defect of P(x)P(y) + P(x P'(y)) - P(P(x) y) = mu eps(y) P(x) on basis
    pairs; zero for every solution of the tensor equation, with no further
    hypotheses."""
    p, pp = extract_rb_pair(a, aug, r)
    pcols = transpose(p.matrix)
    return _operator_defect(a, adjoint_bimodule(a), pcols, pcols,
                            mat_scale(-1, transpose(pp.matrix)), vec_scale(mu, aug.eps))


def extracted_weight_branch(inst: YbeInstance, aug: Augmentation,
                            r: Tensor2) -> Scalar | None:
    """Which Rota-Baxter weight the extracted pair is guaranteed to carry:
    0 when the symmetrizer vanishes, -1 when it is nonzero and satisfies the
    extraction identity, None (no claim) otherwise."""
    sbar = extended_symmetrizer(inst, r)
    if sbar.is_zero():
        return 0
    if extraction_identity_check(inst.algebra, aug, sbar).passed:
        return -1
    return None
