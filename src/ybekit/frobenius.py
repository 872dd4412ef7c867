"""Nondegenerate invariant bilinear forms, the form <-> tensor dictionary,
and the operators a form induces from a tensor.

The gram matrix determines an isomorphism from the algebra to its dual; its
inverse is the dual-to-primal map stored here, and the associated tensor has
the inverse gram matrix as coefficient array.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import (
    Algebra,
    Augmentation,
    BilinearForm,
    _associator,
    adjoint_bimodule,
    check_augmentation,
    matrix_algebra,
)
from .errors import (
    Degenerate,
    DimensionMismatch,
    InvalidAugmentation,
    NotInvariantForm,
    NotSymmetricForm,
    SingularMatrix,
)
from .linalg import (
    Frozen,
    Scalar,
    _cleared,
    _operands,
    _ratio,
    _sparse_rows,
    _trusted,
    exact,
    invert,
    mat_mul,
    transpose,
    unit_vec,
    vec_dot,
)
from .operators import LinearMap, _holds, _operator_forms, _rota_baxter, _suite_report
from .report import CheckReport, dumps
from .tensors import Tensor2
from .ybe import (
    YbeInstance,
    _require_symmetrizer,
    _symmetrizer_num,
    extended_symmetrizer,
    is_solution,
)


class FrobeniusStructure(Frozen):
    def __init__(self, algebra: Algebra, form: BilinearForm, phi_sharp: LinearMap,
                 phi: Tensor2):
        self.__dict__.update(algebra=algebra, form=form, phi_sharp=phi_sharp, phi=phi)


def form_is_invariant(a: Algebra, b: BilinearForm) -> bool:
    """Whether B(xy, z) = B(x, yz): `_associator` of the product (one constant
    a side, so its numerators) and the gram matrix as a table into a line."""
    g = [(p, k, 0, c) for p, row in enumerate(b.gram) for k, c in enumerate(row) if c]
    return not _associator(a._products[1], g, g, a._products[1])


def frobenius_from_form(a: Algebra, b: BilinearForm) -> FrobeniusStructure:
    """Validate symmetry, invariance and nondegeneracy, then package the
    dual-to-primal map and the associated tensor."""
    if b.algebra != a:
        raise NotInvariantForm("form is not over the given algebra")
    if not b.is_symmetric():
        raise NotSymmetricForm("gram matrix is not symmetric")
    if not form_is_invariant(a, b):
        raise NotInvariantForm("form fails the invariance identity")
    try:
        gram_inv = invert(b.gram)
    except SingularMatrix as exc:
        raise Degenerate("gram matrix is singular") from exc
    phi_sharp = LinearMap(transpose(gram_inv), domain="dual")
    phi = Tensor2(a.dim, gram_inv)
    return FrobeniusStructure(a, b, phi_sharp, phi)


def trace_form(n: int) -> tuple[Algebra, FrobeniusStructure]:
    """Full matrix algebra with its trace form."""
    a = matrix_algebra(n)
    d = a.dim
    tr = tuple(1 if i % (n + 1) == 0 else 0 for i in range(d))
    gram = tuple(tuple(vec_dot(a.sc[i][j], tr) for j in range(d)) for i in range(d))
    return a, frobenius_from_form(a, BilinearForm(a, gram))


def induced_operators(f: FrobeniusStructure, r: Tensor2
                      ) -> tuple[LinearMap, LinearMap]:
    """The two endomorphisms obtained by composing the slot maps of r with
    the primal-to-dual map of the form: P[i][j] = sum_k r[k][i] g[j][k] and
    P'[i][j] = sum_k r[i][k] g[j][k] for the gram matrix g.  Both are summed
    over the integer numerators of r and g, along the nonzero entries of
    each gram row, and each entry is divided once."""
    if r.dim != f.algebra.dim:
        raise DimensionMismatch(f"inner dims {r.dim} != {f.algebra.dim}")
    dr, x = _cleared(r.coeff)
    dg, g = _cleared(f.form.gram)
    den, rows = dr * dg, _sparse_rows(g)

    def table(m) -> LinearMap:
        return _trusted(LinearMap, tuple(tuple(_ratio(sum(mi[k] * c for k, c in gj), den)
                                               for gj in rows) for mi in m), "primal")
    return table(tuple(zip(*x))), table(x)


def frobenius_suite(f: FrobeniusStructure, mu: Scalar, r: Tensor2) -> CheckReport:
    """Five equivalent statements on a symmetric Frobenius algebra: the
    tensor equation and four operator identities for the induced pair.
    Passing means the verdicts coincide."""
    a = f.algebra
    n = a.dim
    u = a.require_unit()
    inst = YbeInstance(a, mu)
    p, pt = induced_operators(f, r)
    eps = tuple(mu * f.form.value(u, unit_vec(n, j)) for j in range(n))
    verdict_a = is_solution(inst, r)
    (ds, s), (dg, g) = _symmetrizer_num(a, r.coeff, inst.mu), _cleared(f.form.gram)
    pair, companion, right, left = _operator_forms(  # the twist is g times the symmetrizer
        a, adjoint_bimodule(a), _operands(transpose(p.matrix), transpose(pt.matrix)),
        (dg * ds, mat_mul(g, s)), eps)
    return _suite_report("frobenius-operator-suite", {
        "tensor_equation": verdict_a,
        "induced_pair_identity": pair,
        "companion_pair_identity": companion,
        "right_twisted_rb": right,
        "left_twisted_rb": left,
    })


def proportional_lambda(f: FrobeniusStructure, inst: YbeInstance,
                        r: Tensor2) -> Scalar | None:
    """The scalar lam with symmetrizer(r) = -lam * phi, if one exists."""
    sbar = extended_symmetrizer(inst, r)
    if sbar.is_zero():
        return 0
    n = f.phi.dim
    anchor = next(((i, j) for i in range(n) for j in range(n) if f.phi.coeff[i][j]), None)
    if anchor is None:
        return None
    i, j = anchor
    c = Fraction(sbar.coeff[i][j]) / f.phi.coeff[i][j]
    return exact(-c) if sbar.coeff == f.phi.scale(c).coeff else None


def rb_bridge_suite(f: FrobeniusStructure, mu: Scalar, lam: Scalar,
                    r: Tensor2) -> CheckReport:
    """When the symmetrizer is exactly -lam times the form tensor, solving
    the tensor equation is equivalent to both induced operators being
    Rota-Baxter of weight lam."""
    inst = YbeInstance(f.algebra, mu)
    sbar, (p, pt) = extended_symmetrizer(inst, r), induced_operators(f, r)
    rb_first = _holds(*_rota_baxter(f.algebra, p, lam))
    return _rb_bridge(f, lam, sbar, pt, is_solution(inst, r), rb_first)


def _rb_bridge(f: FrobeniusStructure, lam: Scalar, sbar: Tensor2, pt: LinearMap,
               residual: bool, rb_first: bool) -> CheckReport:
    """`rb_bridge_suite` on the symmetrizer, second induced operator, residual
    verdict and first operator's Rota-Baxter verdict of r, formed by the caller
    (the catalog's `:rota-baxter-weight` when `:operator-table` passed)."""
    _require_symmetrizer("proportional-symmetrizer", _cleared(sbar.coeff), lam, f.phi)
    verdicts = {
        "tensor_equation": residual,
        "rb_first": rb_first,
        "rb_second": _holds(*_rota_baxter(f.algebra, pt, lam)),
    }
    return _suite_report("rb-bridge-suite", verdicts)


def augmentation_form(a: Algebra, aug: Augmentation) -> BilinearForm:
    """The rank-one symmetric invariant form built from an augmentation."""
    rep = check_augmentation(a, aug)
    if not rep.passed:
        raise InvalidAugmentation(dumps(rep.witness))
    e = aug.eps
    return BilinearForm(a, tuple(tuple(e[i] * e[j] for j in range(a.dim))
                                 for i in range(a.dim)))
