"""Producing solutions from Rota-Baxter and O-operators (directly, and in
semi-direct products), and extracting Rota-Baxter operators from solutions
in augmented algebras.

A failed hypothesis raises PreconditionViolated naming its equation.  Each
is written once.  The symmetrizer relation x + x^t - mu (1 (x) 1) = -lam s,
with the x and lam of each construction, has one raise site,
`ybe._require_symmetrizer`, which the dual operator suite and the Frobenius
bridge share; its witness is the whole defect.  An operator identity or the
tensor equation is a kernel verdict, whose witness is read off the first
nonzero block (`operators._defect_witness`; `first_nonzero` of the residual
`Tensor3`, which draws its planes only that far).
"""

from __future__ import annotations

from .algebras import (
    Algebra,
    Augmentation,
    Bimodule,
    _action_entries,
    _first_failure,
    adjoint_bimodule,
    dual_bimodule,
    is_unital_bimodule,
    semidirect_product,
)
from .errors import Degenerate, DimensionMismatch, PreconditionViolated, SingularMatrix
from .linalg import (
    Frozen,
    Mat,
    Scalar,
    _entries,
    identity,
    invert,
    mat_mul,
    mat_scale,
    scalar_str,
    transpose,
    vec_dot,
    vec_scale,
)
from .operators import (
    LinearMap,
    WeightOp,
    _columns,
    _defect_witness,
    _induced_pair,
    _o_operator,
    _operator_defect,
    _require_symmetric_invariant,
    _rota_baxter,
)
from .report import CheckReport
from .tensors import Tensor2
from .ybe import (
    YbeInstance,
    _require_symmetrizer,
    _residual_witness,
    _symmetrizer_num,
    extended_symmetrizer,
    nhacybe_residual,
)


def solutions_from_rb(a: Algebra, s: Tensor2, p: LinearMap, lam: Scalar,
                      mu: Scalar) -> tuple[Tensor2, Tensor2]:
    """Push a symmetric invariant tensor through a Rota-Baxter operator of
    weight lam, slot by slot.  Requires the compatibility identity between
    the operator, the tensor and the unit to hold exactly: the symmetrizer
    of P s is -lam s."""
    _require_symmetric_invariant(a, s)
    witness = _defect_witness(*_rota_baxter(a, p, lam))
    if witness is not None:
        raise PreconditionViolated("rota-baxter", witness=witness)
    _require_symmetrizer("operator-compatibility",
                         _symmetrizer_num(a, mat_mul(p.matrix, s.coeff), mu), lam, s)
    return _push_forward(s, p.matrix)


def _push_forward(s: Tensor2, pm: Mat) -> tuple[Tensor2, Tensor2]:
    """(P s, s P^t): the tensor s pushed through the operator with matrix pm
    in its first slot and in its second."""
    return Tensor2(s.dim, mat_mul(pm, s.coeff)), Tensor2(s.dim, mat_mul(s.coeff, transpose(pm)))


def rb_from_solution(a: Algebra, s: Tensor2, r: Tensor2, lam: Scalar,
                     mu: Scalar) -> tuple[LinearMap, LinearMap]:
    """Invert a nondegenerate symmetric invariant tensor to turn a solution
    into a pair of Rota-Baxter operators of weight lam."""
    _require_symmetric_invariant(a, s)
    try:
        s_inv = invert(transpose(s.coeff))
    except SingularMatrix as exc:
        raise Degenerate("tensor is degenerate") from exc
    if r.dim != s.dim:
        raise DimensionMismatch(f"tensor dims {r.dim} != {s.dim}")
    _require_symmetrizer("symmetrizer-relation", _symmetrizer_num(a, r.coeff, mu), lam, s)
    witness = _residual_witness(nhacybe_residual(YbeInstance(a, mu), r))
    if witness is not None:
        raise PreconditionViolated("tensor-equation", witness=witness)
    return _induced_pair(r, s_inv)


class LiftedOperator(Frozen):
    def __init__(self, algebra: Algebra, hat: LinearMap, source: LinearMap, lam: Scalar):
        # algebra is the semi-direct product the lift lives on
        self.__dict__.update(algebra=algebra, hat=hat, source=source, lam=lam)


def lift_o_operator(a: Algebra, v: Bimodule, alpha: LinearMap,
                    lam: Scalar) -> LiftedOperator:
    """Lift a module-to-algebra map to the semi-direct product, acting as
    (x, u) -> (alpha(u), -lam u)."""
    hat = _lift(a, v, alpha, lam)
    return LiftedOperator(semidirect_product(a, v), hat, alpha, lam)


def _lift(a: Algebra, v: Bimodule, alpha: LinearMap, lam: Scalar) -> LinearMap:
    """The matrix of `lift_o_operator` on A x| V, without building A x| V."""
    n, m = a.dim, v.dim
    _columns(alpha.matrix, n, m, "operator shape does not match module -> algebra")
    rows = [(0,) * n + row for row in alpha.matrix]
    rows += [(0,) * n + tuple(-lam if k == j else 0 for k in range(m)) for j in range(m)]
    return LinearMap(tuple(rows))


def check_balanced_hom(a: Algebra, v: Bimodule, beta: LinearMap) -> CheckReport:
    """Whether a module-to-algebra map intertwines both actions,
    beta(e_k.u) = e_k beta(u) and beta(u.e_k) = beta(u) e_k, and balances
    the two module-valued pairings, beta(e_i).e_j = e_i.beta(e_j).  Each
    identity is an `_associator` with beta as a table out of V x {1} or
    {1} x V.  A failure names the least algebra index k, the left identity
    first on a tie, and only then the least failing module pair."""
    cols = _columns(beta.matrix, a.dim, v.dim, "map shape does not match module -> algebra")
    out = [(j, 0, p, c) for j, col in enumerate(cols) for p, c in enumerate(col) if c]
    into = [(0, j, p, c) for j, _, p, c in out]
    sc, (left, right) = _entries(a.sc), _action_entries(v)
    bad = _first_failure(("left-intertwine", (left, out, sc, out), (0,)),
                         ("right-intertwine", (into, sc, into, right), (2,)))
    if bad:
        return CheckReport("balanced-homomorphism", False,
                           witness={"kind": bad[0], "basis_index": bad[1][0]})
    bad = _first_failure(("balance", (out, left, right, into), (0, 2)))
    if bad:
        return CheckReport("balanced-homomorphism", False,
                           witness={"kind": bad[0], "pair": bad[1]})
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


class SemidirectSolutions(Frozen):
    def __init__(self, algebra: Algebra, r1: Tensor2, r2: Tensor2, s: Tensor2, lam: Scalar,
                 mu: Scalar):
        self.__dict__.update(algebra=algebra, r1=r1, r2=r2, s=s, lam=lam, mu=mu)


def semidirect_solutions(a: Algebra, v: Bimodule, alpha: LinearMap,
                         beta: LinearMap, lam: Scalar, mu: Scalar
                         ) -> SemidirectSolutions:
    """Combine a weight-zero O-operator on a module with a balanced map on
    the dual module into two solutions on the semi-direct product.

    alpha maps the module to the algebra, beta maps the dual module to the
    algebra; the two must add up to mu times the unit pairing: the
    symmetrizer of beta alpha^t is zero.
    """
    witness = _defect_witness(*_o_operator(a, v, alpha, WeightOp.zero()))
    if witness is not None:
        raise PreconditionViolated("weight-zero-operator", witness=witness)
    dual_v = dual_bimodule(v)
    bal = check_balanced_hom(a, dual_v, beta)
    if not bal.passed:
        raise PreconditionViolated("balanced-homomorphism", witness=bal.witness)
    # beta alpha^t, row by row, so that it is n x n also for a zero module
    compat = tuple(tuple(vec_dot(b, c) for c in alpha.matrix) for b in beta.matrix)
    _require_symmetrizer("unit-compatibility", _symmetrizer_num(a, compat, mu))
    if mu != 0 and not (a.is_unital and is_unital_bimodule(v)):
        raise PreconditionViolated("unital-module")
    # beta goes out of the dual module, so its tensor lives on A x| V itself
    hat_alg, s_tilde = hom_tensor(a, dual_v, beta)
    return SemidirectSolutions(hat_alg, *_push_forward(s_tilde, _lift(a, v, alpha, lam).matrix),
                               s_tilde, lam, mu)


def extract_rb_pair(a: Algebra, aug: Augmentation, r: Tensor2
                    ) -> tuple[LinearMap, LinearMap]:
    """The two operators read off a tensor in an augmented algebra by
    pairing one slot against the augmentation of a product."""
    n = a.dim
    if r.dim != n:
        raise DimensionMismatch("tensor dim does not match algebra dim")
    return _induced_pair(r, tuple(tuple(aug.apply(a.sc[i][k]) for k in range(n))
                                  for i in range(n)))


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
