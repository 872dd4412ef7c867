"""Operator forms: the maps induced by a tensor, O-operators with general
weights (scalar, product, one-sided twists), Rota-Baxter operators and
systems, and the equivalence suites tying them to the tensor equation.

A LinearMap with domain "dual" sends dual-basis coordinates to primal
coordinates; for a tensor r the induced map pairs the first slot against the
dual argument, its transpose-companion pairs the second slot.

Every operator identity here has one shape,

    p(x)p(y) = p(q(x).y) + p(x.s(y)) + eps(y) p(x) + p(weight(x, y)),

for maps p, q, s from a bimodule to the algebra, and one kernel,
`_defect_blocks`, evaluates its defect on all module basis pairs.  An
O-operator alpha of weight zero is (alpha, alpha, alpha); a right twist T
moves into s = alpha + T, a left twist into q = alpha + T, and a scalar
weight becomes the weight table.  A Rota-Baxter operator P of weight lam is
(P, P, P + lam id) on the adjoint bimodule.  The identities written with
the product in the other order (the second-slot identity of
`operator_form_suite`, the companion identity of the Frobenius suite) are
the same kernel over the opposite algebra: structure constants sc[k][i] in
place of sc[i][k], and the left and right actions exchanged.  Its table is
then the transpose of the mirrored identity's, which leaves every verdict
unchanged.  The two Yang-Baxter-pair residuals are such tables on the
dual regular bimodule too (`aybp_residual`).

The kernel adds up integer numerators, in the form the `linalg` docstring
states.  The structure constants are cleared once per algebra, the actions
once per bimodule and each map, eps and weight once per tensor: the suites
hand the kernel the operands of `Tensor2._operands`, whose kept lists serve
every identity at every mu, and other callers plain matrices, cleared per
call.  The module element is summed over one denominator.

The kernel yields the table one block, of first module index, at a time,
except that block 0 comes in two pieces: the pair (0, 0) first, then the
rest of the block.  Values are formed only where they are printed; verdicts
test numerators; exact data is built once; a verdict reads the pieces in
order and stops at the first nonzero one, which for most failing verdicts
is the pair (0, 0).  Each identity is written once, as the arguments it
hands the kernel (`_o_operator`, `_rota_baxter`, and `_operator_forms` for
the four forms that `operator_form_suite` and the Frobenius suite share).  A verdict (every suite,
the catalog's family check, the CLI's constructions) is `_holds`, which
tests the numerators and divides nothing.  A witness (`op o-check`, `op
rb-check`, the preconditions of `constructions`) is `_defect_witness`,
which stops at the same piece and divides out only its first nonzero entry.
A table divides every entry once: an int when exact, else a Fraction.
"""

from __future__ import annotations

from itertools import chain, islice
from math import lcm

from .algebras import (
    Algebra,
    Bimodule,
    _action_entries,
    _first_failure,
    adjoint_bimodule,
    dual_regular_bimodule,
)
from .errors import DimensionMismatch, NotInvariant, NotSymmetric, PreconditionViolated
from .linalg import (
    Frozen,
    Mat,
    Scalar,
    Vec,
    _by_coordinate,
    _cleared,
    _entries,
    _lists,
    _minus,
    _operands,
    _rectangular,
    _sparse_rows,
    _trusted,
    _values,
    is_zero_mat,
    is_zero_vec,
    mat,
    mat_vec,
    scalar_str,
    transpose,
    vec_add,
    vec_dot,
    vec_scale,
)
from .report import CheckReport
from .tensors import Tensor2, Tensor3
from .ybe import (
    YbeInstance,
    _invariance_blocks,
    _require_symmetrizer,
    _symmetrizer_num,
    extended_symmetrizer,
    is_invariant,
    is_solution,
)


class LinearMap(Frozen):
    def __init__(self, matrix: Mat, domain: str = "primal"):
        self.__dict__.update(matrix=mat(matrix), domain=domain)
        self._check()

    def _check(self):
        _rectangular(self.matrix)
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
    return _trusted(LinearMap, transpose(r.coeff), "dual")


def tsharp(r: Tensor2) -> LinearMap:
    """Map from dual coordinates pairing the second tensor slot."""
    return _trusted(LinearMap, r.coeff, "dual")


def tensor_of_sharp(m: LinearMap | Mat) -> Tensor2:
    """Inverse of `sharp`: rebuild the tensor from a dual-to-primal map."""
    matrix = m.matrix if isinstance(m, LinearMap) else mat(m)
    return Tensor2(len(matrix), transpose(matrix))


def dual_map(m: LinearMap) -> LinearMap:
    """Transpose: for P from dual coordinates this is the map with
    <P*(a), b> = <a, P(b)>, again from dual coordinates."""
    return _trusted(LinearMap, transpose(m.matrix), m.domain)


ProductTable = tuple  # table[i][j] = module coordinate vector


class BimoduleAlgebra(Frozen):
    def __init__(self, bimodule: Bimodule, product: ProductTable):
        m = bimodule.dim
        tab = tuple(tuple(tuple(v) for v in row) for row in product)
        if len(tab) != m or any(len(row) != m for row in tab) or any(
                len(v) != m for row in tab for v in row):
            raise DimensionMismatch("product table does not match module dim")
        self.__dict__.update(bimodule=bimodule, product=tab)


def check_bimodule_algebra(b: BimoduleAlgebra) -> CheckReport:
    """Associativity of the module product, then the three compatibility
    identities with the bimodule actions, each an `_associator` on basis
    elements; a compatibility witness is (algebra index, module indices)."""
    prod, (left, right) = _entries(b.product), _action_entries(b.bimodule)
    bad = _first_failure(("associativity", (prod, prod, prod, prod), (0, 1, 2)))
    if bad:
        return CheckReport("bimodule-algebra", False, witness={"kind": bad[0], "triple": bad[1]})
    bad = _first_failure(("left-compat", (left, prod, left, prod), (0, 1, 2)),
                         ("right-compat", (prod, right, prod, right), (2, 0, 1)),
                         ("middle-compat", (right, prod, prod, left), (1, 0, 2)))
    if bad:
        return CheckReport("bimodule-algebra", False, witness={"kind": bad[0], "data": bad[1]})
    return CheckReport("bimodule-algebra", True)


def invariant_dual_product(a: Algebra, s: Tensor2) -> BimoduleAlgebra:
    """Product on the dual space induced by a symmetric invariant tensor:
    the dual vector picks up a right action by the image of its partner."""
    _require_symmetric_invariant(a, s)
    return _dual_product(a, s)


def _require_symmetric_invariant(a: Algebra, s: Tensor2):
    """The hypothesis on the tensor s of a construction."""
    if not s.is_symmetric():
        raise NotSymmetric("tensor must be symmetric")
    if not is_invariant(a, s).passed:
        raise NotInvariant("tensor must be invariant")


def _dual_product(a: Algebra, s: Tensor2) -> BimoduleAlgebra:
    """`invariant_dual_product` without its checks, for callers that have
    already tested s: `_dual_num` of its numerators, each entry divided once."""
    n, (ds, x) = a.dim, _cleared(s.coeff)
    flat = _values(_dual_num(a, x), ds * a._products[0])
    return BimoduleAlgebra(dual_regular_bimodule(a), tuple(
        tuple(flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)) for i in range(n)))


def _dual_num(a: Algebra, x) -> list:
    """The dual product of an integer matrix x as ints over the denominator
    of the structure constants, coordinate p of entry [i][j] at
    (i * n + j) * n + p: it gains x[j][k] c for each e_k e_p = ... + c e_i."""
    n, by_i = a.dim, a._groups[False][1]
    flat = [0] * n ** 3
    for j, row in enumerate(x):
        for k, y in enumerate(row):
            for p, i, c in by_i[k] if y else ():  # e_k e_p has c at e_i
                flat[(i * n + j) * n + p] += y * c
    return flat


def tensor_from_dual_product(b: BimoduleAlgebra) -> Tensor2:
    """Rebuild the symmetric tensor from a dual-space product by pairing
    against the unit."""
    a = b.bimodule.algebra
    u = a.require_unit()
    n = a.dim
    return Tensor2(n, tuple(
        tuple(vec_dot(b.product[l][k], u) for l in range(n)) for k in range(n)))


class WeightOp(Frozen):
    def __init__(self, kind: str, lam: Scalar = 0, table: ProductTable | None = None,
                 twist: Mat | None = None):
        self.__dict__.update(kind=kind, lam=lam, table=table, twist=twist)

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


ResidualTable = tuple  # table[i][j] = algebra coordinate vector


def _columns(mx: Mat, n: int, m: int, what: str) -> Mat:
    """The m columns of an n x m matrix; DimensionMismatch for any other shape."""
    if len(mx) != n or any(len(row) != m for row in mx):
        raise DimensionMismatch(what)
    return transpose(mx) if n else ((),) * m


def _defect_blocks(a: Algebra, v: Bimodule, p, q, s, eps: Vec | None = None,
                   weight: tuple | None = None, opposite: bool = False) -> tuple:
    """(pieces, den): the table D[i][j] = p(e_i)p(e_j) - p(q(e_i).e_j)
    - p(e_i.s(e_j)) - eps[j] p(e_i) - p(weight[i][j]) over all basis pairs
    of the module v is num / den, with pieces yielding num in order, one
    block of first index i at a time, block i holding coordinate t of
    D[i][j] at j * n + t.  Block 0 comes in two pieces, the n entries of
    D[0][0] and then those of D[0][j] for j > 0; blocks 1 to m - 1 come
    whole.  Joined, the pieces hold D[i][j] at (i * m + j) * n.

    The product is that of the algebra a, or with opposite that of its
    opposite algebra, with the left and right actions of v exchanged.  The
    maps p, q and s go from the module to the algebra and are given by their
    columns, p[i] being p(e_i), as matrices or `linalg._Operand`s.  eps is a
    vector and weight (dw, flat) the table weight[i][j][c] = flat[(i * m + j)
    * m + c] / dw, both optional.  The module element q(e_i).e_j + e_i.s(e_j)
    + eps[j] e_i + weight[i][j] is summed first and p is applied to it once;
    block i reads p(e_i), q(e_i), the action on e_i and weight[i] only.
    Block 0 is summed as the others are, both its module elements and
    p(e_0)p(e_j); only p is applied to the module element of pair (0, 0)
    before the others, so a verdict that fails there, as most failing ones
    do, stops before p is applied to the rest, and no entry is formed twice.
    Every product runs over nonzero structure constants, action entries and
    map entries only.  num holds ints, or polynomials where the maps do.
    """
    n = a.dim
    dsc, by_i = a._products[0], a._groups[opposite][1]
    dact, left, right = v._actions
    lmod, rmod = v._by_module  # e_i.e_k has x at e_c: (k, c, x) in rmod[i]
    if opposite:
        left, rmod = right, lmod
    cp = _cleared(p)  # q and s are often p itself
    P, Q, S = cp, cp if q is p else _cleared(q), cp if s is p else _cleared(s)
    (dp, p), (dq, q), (ds, s) = P, Q, S
    m = len(p)
    de, (eps,) = _cleared((eps,)) if eps else (1, ((),))
    dw, wflat = weight or (1, ())
    # p(e_i)p(e_j) is over dsc * dp**2, the module part (each piece) scaled to den / dp.
    dm = lcm(dq * dact, ds * dact, de, dw)
    den = lcm(dsc * dp * dp, dm * dp)
    km = den // (dm * dp)
    kw, kq, ks, ke = km * dm // dw, km * dm // (dq * dact), km * dm // (ds * dact), km * dm // de
    eps = [y * ke for y in eps] if ke != 1 else eps
    wflat = [x * kw for x in wflat] if kw != 1 else wflat
    p_rows = _lists(P, _sparse_rows, 1)
    q_rows = p_rows if Q is P and kq == 1 else _lists(Q, _sparse_rows, kq)
    s_at, p_at = _lists(S, _by_coordinate, ks), _lists(P, _by_coordinate, den // (dsc * dp * dp))

    def blocks():
        for i in range(m):  # the module part of block i at j * m + c
            mod = [*wflat[i * m * m:(i + 1) * m * m]] if weight else [0] * (m * m)
            for k, y in q_rows[i]:  # e_k.e_j has x at e_c
                for c, j, x in left[k]:
                    mod[j * m + c] += y * x
            for k, c, x in rmod[i]:
                for j, y in s_at[k]:
                    mod[j * m + c] += y * x
            for j, y in enumerate(eps):
                if y:
                    mod[j * m + i] += y
            out = [0] * (m * n)
            for b, x in p_rows[i]:
                for d, k, c in by_i[b]:  # e_b e_d has c at e_k
                    cx = c * x
                    for j, y in p_at[d]:
                        out[j * n + k] += cx * y
            rest = enumerate(mod)
            if i == 0:  # pair (0, 0) on its own, the rest of block 0 after it
                for c, w in islice(rest, m):
                    for t, x in p_rows[c] if w else ():
                        out[t] -= w * x
                yield out[:n]
            for at, w in rest:
                if w:
                    j, c = divmod(at, m)
                    for t, x in p_rows[c]:
                        out[j * n + t] -= w * x
            yield out if i else out[n:]
    return blocks(), den


def _defect_num(*args, **kwargs) -> tuple[list, int]:
    """`_defect_blocks` with its pieces joined: D[i][j] at (i * m + j) * n."""
    pieces, den = _defect_blocks(*args, **kwargs)
    return [*chain.from_iterable(pieces)], den


def _operator_defect(a: Algebra, v: Bimodule, p, q, s, eps: Vec | None = None,
                     weight: tuple | None = None) -> ResidualTable:
    """The defect table of `_defect_num` as values: table[i][j] is D[i][j]."""
    n, m = a.dim, v.dim
    flat = _values(*_defect_num(a, v, p, q, s, eps, weight))
    return tuple(tuple(tuple(flat[(i * m + j) * n:(i * m + j + 1) * n]) for j in range(m))
                 for i in range(m))


def _holds(*args, **kwargs) -> bool:
    """Whether the identity that `_defect_blocks` evaluates for these arguments
    holds: a verdict read off its integer numerators piece by piece (pair
    (0, 0), the rest of block 0, then blocks 1 to m - 1), up to the first
    nonzero one, with no value formed."""
    return not any(map(any, _defect_blocks(*args, **kwargs)[0]))


def _defect_witness(*args, **kwargs) -> dict | None:
    """The witness of the identity `_holds` tests, None when it holds: the
    pair (i, j) of the first nonzero D[i][j] and its value, read off the
    first nonzero piece, the same one at which `_holds` stops.  The pair is
    divmod(offset // n, m) of the entry's offset in the joined table, and
    D[i][j] is the only entry divided out."""
    pieces, den = _defect_blocks(*args, **kwargs)
    n, m = args[0].dim, args[1].dim
    offset = 0  # of the piece in the joined table
    for piece in pieces:
        for t, x in enumerate(piece):
            if x:
                t -= t % n  # pieces start and end at a pair
                return {"pair": [*divmod((offset + t) // n, m)], "defect": [
                    scalar_str(y) for y in _values(piece[t:t + n], den)]}
        offset += len(piece)
    return None


def _o_operator(a: Algebra, v: Bimodule, alpha: LinearMap, weight: WeightOp) -> tuple:
    """The arguments of `_defect_num` for the identity of `o_operator_residual`."""
    m = v.dim
    cols = _columns(alpha.matrix, a.dim, m,
                    "operator shape does not match module -> algebra")
    q = s = cols
    table = None
    if weight.kind == "scalar":
        if weight.lam != 0:
            product = BimoduleAlgebra(v, weight.table).product
            dw, (flat,) = _cleared(([weight.lam * x for row in product for w in row for x in w],))
            table = dw, flat
    elif weight.kind in ("right_twist", "left_twist"):
        twist = _columns(weight.twist, a.dim, m,
                         "twist shape does not match module -> algebra")
        moved = tuple(vec_add(x, y) for x, y in zip(cols, twist))
        if weight.kind == "right_twist":
            s = moved
        else:
            q = moved
    elif weight.kind != "zero":
        raise DimensionMismatch(f"unknown weight kind {weight.kind}")
    return a, v, cols, q, s, None, table


def o_operator_residual(a: Algebra, v: Bimodule, alpha: LinearMap,
                        weight: WeightOp) -> ResidualTable:
    """Defect of alpha(u) alpha(w) = alpha(alpha(u).w) + alpha(u.alpha(w))
    + alpha(weight(u, w)) on all module basis pairs."""
    return _operator_defect(*_o_operator(a, v, alpha, weight))


def residual_is_zero(table: ResidualTable) -> bool:
    return all(is_zero_vec(v) for row in table for v in row)


def _rota_baxter(a: Algebra, p: LinearMap, lam: Scalar) -> tuple:
    """The arguments of `_defect_num` for the identity of `rota_baxter_residual`."""
    n = a.dim
    cols = _columns(p.matrix, n, n, "operator is not an endomorphism of the algebra")
    shifted = tuple(tuple(x + lam if k == i else x for k, x in enumerate(col))
                    for i, col in enumerate(cols)) if lam != 0 else cols
    return a, adjoint_bimodule(a), cols, cols, shifted


def rota_baxter_residual(a: Algebra, p: LinearMap, lam: Scalar) -> ResidualTable:
    """Defect of P(x)P(y) = P(P(x)y) + P(xP(y)) + lam P(xy) on basis pairs."""
    return _operator_defect(*_rota_baxter(a, p, lam))


def rb_system_residual(a: Algebra, p: LinearMap, s: LinearMap
                       ) -> tuple[ResidualTable, ResidualTable]:
    """Defects of P(x)P(y) = P(P(x)y + xS(y)) and S(x)S(y) = S(P(x)y + xS(y))."""
    n = a.dim
    what = "operator is not an endomorphism of the algebra"
    pc, sc_ = _columns(p.matrix, n, n, what), _columns(s.matrix, n, n, what)
    adj = adjoint_bimodule(a)
    return _operator_defect(a, adj, pc, pc, sc_), _operator_defect(a, adj, sc_, pc, sc_)


def aybp_residual(a: Algebra, r: Tensor2, s: Tensor2) -> tuple[Tensor3, Tensor3]:
    """Residuals of the two coupled Yang-Baxter-pair equations

    r12 r13 - r23 r12 + r13 s23  and  r12 s13 - s23 s12 + s13 s23.

    Both are defect tables on the dual regular bimodule, entry for entry:
    the second is the table D of (s#, s#, -r^t#) as it stands, and the first
    is D of (r^t#, -s#, r^t#) read as R[p][q][t] = D[q][t][p]."""
    n = a.dim
    if r.dim != n or s.dim != n:
        raise DimensionMismatch("tensor dims do not match algebra dim")
    sp, rt, neg_sp, neg_rt = _operands(s.coeff, transpose(r.coeff))
    v = dual_regular_bimodule(a)
    first = _operator_defect(a, v, rt, neg_sp, rt)
    return (_trusted(Tensor3, n, tuple(tuple(tuple(row[p] for row in plane) for plane in first)
                                       for p in range(n))),
            _trusted(Tensor3, n, _operator_defect(a, v, sp, sp, neg_rt)))


def _suite_report(name: str, verdicts: dict, **extra) -> CheckReport:
    vals = list(verdicts.values())
    agree = all(v == vals[0] for v in vals)
    details = {"verdicts": verdicts, "all_pass": all(vals)}
    details.update(extra)
    return CheckReport(name, agree,
                       witness=None if agree else {"verdicts": verdicts},
                       details=details)


def _operator_forms(a: Algebra, v: Bimodule, ops: tuple, twist: tuple, eps: Vec | None
                    ) -> tuple[bool, bool, bool, bool]:
    """The verdicts of the four operator forms of maps p, pt from the module
    v to the algebra, given as the operands (p, pt, -p, -pt): the pair
    identity of p with eps, its companion for pt over the opposite algebra,
    and the O-operator forms of p twisted on the right and of pt twisted on
    the left by -t, for the columns t of the twist, given as (d, d * t)."""
    p, pt, neg_p, neg_pt = ops
    return (_holds(a, v, p, p, neg_pt, eps),
            _holds(a, v, pt, pt, neg_p, eps, opposite=True),
            _holds(a, v, p, p, _minus(p, twist)),
            _holds(a, v, pt, _minus(pt, twist), pt))


def operator_form_suite(inst: YbeInstance, r: Tensor2) -> CheckReport:
    """Five equivalent characterisations of one tensor: the equation itself,
    the two dual-basis operator identities, and the two twisted O-operator
    forms.  Passing means all five verdicts coincide.  r# and r^t# are the
    operands of r, twisted by the numerators of its extended symmetrizer."""
    a, mu = inst.algebra, inst.mu
    verdict_a = is_solution(inst, r)
    first, second, right, left = _operator_forms(
        a, dual_regular_bimodule(a), r._operands, _symmetrizer_num(a, r._operands[0], mu),
        vec_scale(mu, a.require_unit()) if mu != 0 else None)
    return _suite_report("operator-form-suite", {
        "tensor_equation": verdict_a,
        "first_slot_identity": first,
        "first_slot_right_twist": right,
        "second_slot_identity": second,
        "second_slot_left_twist": left,
    })


def _invariant_operator_suite(inst: YbeInstance, r: Tensor2, residual: bool
                              ) -> CheckReport | None:
    """`invariant_operator_suite` on the caller's residual verdict of r; None
    when the symmetrizer is not invariant: invariance is tested and the weight
    table summed on the symmetrizer's numerators, and nothing is divided."""
    a = inst.algebra
    p, pt = r._operands[:2]
    den, num = _symmetrizer_num(a, p, inst.mu)
    if any(map(any, _invariance_blocks(a, num))):
        return None
    weight, branch = None, "weight-0"
    if any(map(any, num)):  # minus the dual product of the symmetrizer
        weight = den * a._products[0], [-y for y in _dual_num(a, num)]
        branch = "weight--1"
    dualmod = dual_regular_bimodule(a)
    return _suite_report("invariant-operator-suite", {
        "tensor_equation": residual,
        "first_slot_operator": _holds(a, dualmod, p, p, p, None, weight),
        "second_slot_operator": _holds(a, dualmod, pt, pt, pt, None, weight),
    }, branch=branch)


def invariant_operator_suite(inst: YbeInstance, r: Tensor2) -> CheckReport:
    """With an invariant symmetrizer the twisted forms collapse to plain
    weighted O-operators: weight zero when the symmetrizer vanishes, weight
    -1 against the induced dual product otherwise."""
    rep = _invariant_operator_suite(inst, r, is_solution(inst, r))
    if rep is None:
        inv = is_invariant(inst.algebra, extended_symmetrizer(inst, r))
        raise PreconditionViolated("invariant-symmetrizer", witness=inv.witness)
    return rep


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
    s = tensor_from_dual_product(b)  # symmetric, by the pairing check above
    induced = _dual_product(a, s).product  # induced[j][i][k] is (s#(e_i*) e_k)[j]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if b.product[j][i][k] != induced[j][i][k]:
                    raise PreconditionViolated(
                        "product-pairing", witness={"data": [i, j, k]})
    _columns(p.matrix, n, n, "operator shape does not match module -> algebra")
    _require_symmetrizer("symmetrizer-relation", _symmetrizer_num(a, p.matrix, mu), -1, s)
    if s.is_zero():
        weight = WeightOp.zero()
        branch = "weight-0"
    else:
        weight = WeightOp.scalar(-1, b.product)
        branch = "weight--1"
    inst = YbeInstance(a, mu)
    verdicts = {
        "map_operator": _holds(*_o_operator(a, b.bimodule, p, weight)),
        "dual_map_operator": _holds(*_o_operator(a, b.bimodule, dual_map(p), weight)),
        "first_slot_tensor": is_solution(inst, tensor_of_sharp(p)),
        "second_slot_tensor": is_solution(inst, Tensor2(n, p.matrix)),
    }
    return _suite_report("dual-operator-suite", verdicts, branch=branch)
