"""The blocked kernels against the oracles of `helpers`.

The residual, operator-identity and invariance kernels yield their tables
one block at a time (`ybe._residual_blocks` by first index,
`operators._defect_blocks` by first module index, with block 0 in two
pieces, the pair (0, 0) first, `ybe._invariance_blocks` by basis vector),
and a verdict stops at the first nonzero block or piece.  Joined and
divided by their denominator, the blocks must be the tables the oracles
compute from their definitions (the slotwise residuals, the per-pair defect
table, the dense invariance defect), entry for entry, with int numerators;
the verdicts must be those of the oracles.  The Yang-Baxter-pair residuals,
two defect tables read as tensors (`operators.aybp_residual`), must be the
slotwise ones in values and types.  Blocks over the polynomials of
`ybekit.poly` are compared at a random rational point.  A count of the
blocks drawn guards against a verdict that evaluates the whole table."""

import contextlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybekit.operators as operators_module
import ybekit.ybe as ybe_module
from ybekit import (
    Bimodule,
    LinearMap,
    Tensor2,
    WeightOp,
    YbeInstance,
    adjoint_bimodule,
    aybp_residual,
    dual_regular_bimodule,
    extended_symmetrizer,
    invariant_symmetric_basis,
    is_invariant,
    is_solution,
    matrix_algebra,
    operator_form_suite,
)
from ybekit.algebras import make_algebra
from ybekit.errors import SingularMatrix
from ybekit.linalg import mat_vec, scalar_str
from ybekit.operators import (
    _defect_blocks,
    _defect_num,
    _defect_witness,
    _holds,
    _o_operator,
    _rota_baxter,
)
from ybekit.poly import Poly, variables
from ybekit.ybe import (
    _cleared,
    _invariance_blocks,
    _residual_blocks,
    _residual_num,
)

from helpers import (
    ALL_NAMES,
    BASES,
    alg,
    entry,
    evaluate,
    invariance_defect,
    rebased_entry,
    reference_defect_table,
    reference_invert,
    slotwise_opposite_residual,
    slotwise_pair_residuals,
    slotwise_residual,
    typed_tree,
)

MUS = (0, 1, Fraction(-1, 2))
VALUES = (-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3))
SCALARS = st.one_of(st.integers(-2, 2),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))

ALGEBRAS = {name: (lambda name=name: alg(name)) for name in ALL_NAMES}
ALGEBRAS.update({f"{name}-rebased": (lambda name=name: rebased_entry(name)[0]) for name in BASES})
ALGEBRAS.update({
    "M3": lambda: matrix_algebra(3),
    "zero-dim": lambda: make_algebra(0, []),
    "zero-product": lambda: make_algebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]),
    "nilpotent": lambda: make_algebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]),
    "half": lambda: make_algebra(1, [[[Fraction(1, 2)]]], unit=(2,)),
})


def _joined(blocks):
    return [x for block in blocks for x in block]


def _matrix(rnd, rows, cols, values=VALUES):
    return tuple(tuple(rnd.choice(values) for _ in range(cols)) for _ in range(rows))


def _mus(a):
    return MUS if a.unit is not None else (0,)


def _direct_sum(v, w):
    """The bimodule V (+) W, with block-diagonal actions."""
    def blocks(x, y):
        return tuple(tuple(r) + (0,) * w.dim for r in x) + \
            tuple((0,) * v.dim + tuple(r) for r in y)
    return Bimodule(v.algebra, v.dim + w.dim,
                    tuple(blocks(x, y) for x, y in zip(v.left, w.left)),
                    tuple(blocks(x, y) for x, y in zip(v.right, w.right)))


def _points(rnd, n, *matrices):
    """[None] when the matrices hold numbers; a random rational point for
    the n * n variables of `variables(n)` when they hold polynomials."""
    if not any(isinstance(x, Poly) for m in matrices for row in m for x in row):
        return [None]
    return [[rnd.choice(VALUES) for _ in range(n * n)]]


def _at(m, point):
    """The matrix m with every polynomial evaluated at point."""
    return m if point is None else tuple(tuple(evaluate(x, point) for x in row) for row in m)


def _same_values(num, den, point, want):
    """The numerators num, ints or polynomials evaluated at point, are the
    values want over den."""
    assert all(type(x) is int or point and type(x) is Poly for x in num)
    assert [evaluate(x, point) for x in num] == [den * w for w in want]


def _flat(table):
    return [x for plane in table for row in plane for x in row]


def _same_residual(rnd, a, mu, c):
    """The joined planes over their denominator are the slotwise residual;
    is_solution is its verdict."""
    n = a.dim
    inst = YbeInstance(a, mu)
    for opposite, oracle in ((False, slotwise_residual), (True, slotwise_opposite_residual)):
        planes, den = _residual_blocks(a, mu, c, opposite)
        got = _joined(planes)
        assert _residual_num(a, mu, c, opposite) == (got, den)
        for point in _points(rnd, n, c):
            want = oracle(inst, Tensor2(n, _at(c, point)))
            _same_values(got, den, point, _flat(want.coeff))
            if point is None and not opposite:
                assert is_solution(inst, Tensor2(n, c)) == want.is_zero()


def _same_defect(rnd, a, v, p, q, s, eps=None, weight=None, opposite=False):
    """The joined blocks over their denominator are the per-pair defect
    table; _holds is its verdict."""
    args = (a, v, p, q, s, eps, weight, opposite)
    blocks, den = _defect_blocks(*args)
    got = _joined(blocks)
    assert _defect_num(*args) == (got, den)
    assert _holds(*args) == (not any(got))
    for point in _points(rnd, a.dim, p, q, s):
        maps = (_at(m, point) for m in (p, q, s))
        want = _flat(reference_defect_table(a, v, *maps, eps, weight, opposite))
        _same_values(got, den, point, want)
        if point is None:
            assert _holds(*args) == (not any(want))


def _same_invariance(rnd, a, s):
    """The joined blocks over their denominator are the dense invariance
    defect, basis vector by basis vector; is_invariant is its verdict."""
    n = a.dim
    ds, x = _cleared(s)
    got = _joined(_invariance_blocks(a, x))
    for point in _points(rnd, n, s):
        t = Tensor2(n, _at(s, point))
        want = _flat([invariance_defect(a, t, k).coeff for k in range(n)])
        _same_values(got, ds * a._products[0], point, want)
        if point is None:
            assert is_invariant(a, t).passed == (not any(want))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_residual_planes_join_to_the_flat_residual(name):
    a = ALGEBRAS[name]()
    n = a.dim
    rnd, points = random.Random(name), random.Random(f"{name}-points")
    for mu in _mus(a):
        tensors = [_matrix(rnd, n, n) for _ in range(3)] + [variables(n)]
        if a.unit is not None:  # mu (1 (x) 1) solves the equation at mu
            tensors.append(tuple(tuple(mu * x * y for y in a.unit) for x in a.unit))
        for c in tensors:
            _same_residual(points, a, mu, c)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_slot_product_planes_join_to_the_flat_sum(name):
    # The Yang-Baxter-pair residuals, sums of products of r and s in mixed
    # slots, come from two operator tables on the dual regular bimodule, one
    # read in another order.  Their planes are the flat sums of the slot
    # products (`slotwise_pair_residuals`), in values and types, on integer
    # and half-integer r and s, with s = r, and with zero tensors.
    a = ALGEBRAS[name]()
    n = a.dim
    rnd = random.Random(f"{name}-pair")
    half = tuple(Fraction(x, 2) for x in (-3, -1, 0, 1, 3))
    ints, halves = ([Tensor2(n, _matrix(rnd, n, n, vals)) for _ in range(2)]
                    for vals in ((-2, -1, 0, 1, 2), half))
    zero = Tensor2(n, ((0,) * n,) * n)
    pairs = [(ints[0], ints[1]), (halves[0], halves[1]), (ints[0], halves[0]),
             (halves[1], ints[1]), (ints[0], ints[0]), (halves[0], halves[0]),
             (zero, ints[1]), (halves[1], zero), (zero, zero)]
    for r, s in pairs:
        assert typed_tree(aybp_residual(a, r, s)) == typed_tree(slotwise_pair_residuals(a, r, s))


def _weights(rnd, a, v):
    n, m = a.dim, v.dim
    table = tuple(_matrix(rnd, m, m) for _ in range(m))
    return [WeightOp.zero(), WeightOp.scalar(Fraction(-1, 2), table), WeightOp.product(table),
            WeightOp.right_twist(_matrix(rnd, n, m)), WeightOp.left_twist(_matrix(rnd, n, m))]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_defect_blocks_join_to_the_flat_table(name):
    a = ALGEBRAS[name]()
    n = a.dim
    rnd, points = random.Random(name), random.Random(f"{name}-points")
    adj, dual = adjoint_bimodule(a), dual_regular_bimodule(a)
    for v in (adj, dual, _direct_sum(adj, dual)):
        m = v.dim
        for weight in _weights(rnd, a, v):
            alpha = LinearMap(_matrix(rnd, n, m))
            args = _o_operator(a, v, alpha, weight)
            for opposite in (False, True):
                _same_defect(points, *args, opposite=opposite)
        p, q, s = (_matrix(rnd, m, n) for _ in range(3))
        for eps in (None, _matrix(rnd, 1, m)[0]):
            for opposite in (False, True):
                _same_defect(points, a, v, p, q, s, eps, opposite=opposite)
                _same_defect(points, a, v, p, p, p, eps, opposite=opposite)
    for lam in (0, 1, Fraction(-1, 2)):
        _same_defect(points, *_rota_baxter(a, LinearMap(_matrix(rnd, n, n)), lam))
    # Polynomial maps, as in the operator identities run over unknowns.
    cols = variables(n)
    shifted = tuple(tuple(x + 1 if k == i else x for k, x in enumerate(col))
                    for i, col in enumerate(cols))
    for v in (adj, dual):
        _same_defect(points, a, v, cols, cols, shifted)
        _same_defect(points, a, v, cols, shifted, cols, (1,) * n, opposite=True)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_invariance_blocks_join_to_the_flat_defect(name):
    a = ALGEBRAS[name]()
    n = a.dim
    rnd, points = random.Random(name), random.Random(f"{name}-points")
    for _ in range(3):
        s = _matrix(rnd, n, n)
        _same_invariance(points, a, s)
        _same_invariance(points, a, tuple(tuple(x + y for x, y in zip(r, c))
                                          for r, c in zip(s, zip(*s))))
    for t in invariant_symmetric_basis(a):
        _same_invariance(points, a, t.coeff)
    _same_invariance(points, a, variables(n))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_families_agree_with_the_flat_kernels(name):
    e = entry(name)
    a = e.algebra
    for mu in (1, Fraction(-1, 2)):
        for fam in e.families:
            r = fam.tensor(mu)
            _same_residual(None, a, mu, r.coeff)
            _same_invariance(None, a, extended_symmetrizer(YbeInstance(a, mu), r).coeff)
            _same_defect(None, *_rota_baxter(a, fam.q_map(mu), fam.weight_sign * mu))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rational_tensors_agree_with_the_flat_kernels(data):
    name = data.draw(st.sampled_from(("A2", "B1", "M2")))
    a = rebased_entry(name)[0] if data.draw(st.booleans()) else alg(name)
    n = a.dim
    flat = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    r = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
    mu = data.draw(SCALARS)
    _same_residual(None, a, mu, r)
    _same_invariance(None, a, r)
    v = dual_regular_bimodule(a) if data.draw(st.booleans()) else adjoint_bimodule(a)
    cols = tuple(zip(*r))
    eps = data.draw(st.one_of(st.none(), st.lists(SCALARS, min_size=n, max_size=n)))
    _same_defect(None, a, v, r, r, tuple(tuple(-x for x in c) for c in cols), eps,
                 opposite=data.draw(st.booleans()))


def _weight_zeroing(a, v, p, q, s, eps, opposite, target):
    """A weight table (dw, flat) under which the per-pair defect of (p, q, s,
    eps) vanishes on every pair before target, in row-major order, and is
    unchanged from target on: weight[i][j] is the module element that p maps
    to the defect at (i, j), read through the first n columns of p, which
    are invertible.  None when the defect at target itself is zero."""
    n, m = a.dim, v.dim
    table = reference_defect_table(a, v, p, q, s, eps, None, opposite)
    if not any(table[target[0]][target[1]]):
        return None
    inv = reference_invert(tuple(zip(*p[:n])))  # p(w) for w on the first n coordinates
    flat = []
    for i, j in product(range(m), repeat=2):
        w = mat_vec(inv, table[i][j]) if (i, j) < target else (0,) * n
        flat += [*w, *(0,) * (m - n)]
    dw, (flat,) = _cleared((flat,))
    return dw, flat


def _pieces_drawn(monkeypatch, args):
    """The pieces that `_holds` and `_defect_witness` draw for args."""
    drawn = _count_blocks(monkeypatch, operators_module, "_defect_blocks")
    _holds(*args), _defect_witness(*args)
    monkeypatch.undo()
    return drawn


@pytest.mark.parametrize("module", ("adjoint", "dual", "adjoint+dual"))
@pytest.mark.parametrize("name", ("B1", "M2", "A2-rebased"))
def test_defect_pieces_and_witness_match_the_per_pair_table(name, module, monkeypatch):
    # The first nonzero pair is (0, 0), (0, j > 0) or (i > 0, j): the joined
    # pieces are the per-pair table, the witness is its first nonzero pair
    # and value, and the verdict and the witness stop at the piece holding it.
    a = ALGEBRAS[name]()
    adj, dual = adjoint_bimodule(a), dual_regular_bimodule(a)
    v = {"adjoint": adj, "dual": dual, "adjoint+dual": _direct_sum(adj, dual)}[module]
    n, m = a.dim, v.dim
    rnd = random.Random(f"{name}-{module}")
    for opposite in (False, True):
        for target in ((0, 0), (0, rnd.randrange(1, m)), (rnd.randrange(1, m), rnd.randrange(m))):
            weight = None
            while weight is None:
                p, q, s = (_matrix(rnd, m, n) for _ in range(3))
                eps = rnd.choice((None, _matrix(rnd, 1, m)[0]))
                with contextlib.suppress(SingularMatrix):
                    weight = _weight_zeroing(a, v, p, q, s, eps, opposite, target)
            args = (a, v, p, q, s, eps, weight, opposite)
            pieces, den = _defect_blocks(*args)
            pieces = list(pieces)
            assert [len(x) for x in pieces] == [n, (m - 1) * n] + [m * n] * (m - 1)
            want = reference_defect_table(a, v, p, q, s, eps, weight, opposite)
            _same_values(_joined(pieces), den, None, _flat(want))
            i, j = target
            assert next(ij for ij in product(range(m), repeat=2) if any(want[ij[0]][ij[1]])) == target
            assert not _holds(*args)
            assert _defect_witness(*args) == {
                "pair": [i, j], "defect": [scalar_str(x) for x in want[i][j]]}
            k = 1 if target == (0, 0) else 2 if i == 0 else i + 2
            assert _pieces_drawn(monkeypatch, args) == [k, k]


@pytest.mark.parametrize("case", ("m=0", "n=0"))
def test_defect_pieces_of_an_empty_table(case):
    # No module basis: no piece.  No algebra basis: pieces of no entries.
    if case == "m=0":
        a = alg("B1")
        v, m = Bimodule(a, 0, ((),) * 3, ((),) * 3), 0
    else:
        a, m = make_algebra(0, ()), 2
        v = Bimodule(a, m, (), ())
    p = ((),) * m
    for eps, opposite in ((None, False), ((1,) * m, True)):
        args = (a, v, p, p, p, eps, None, opposite)
        pieces, den = _defect_blocks(*args)
        assert list(pieces) == ([] if m == 0 else [[], [], []])
        assert _defect_num(*args) == ([], den)
        assert reference_defect_table(a, v, p, p, p, eps, None, opposite) == \
            tuple(((),) * m for _ in range(m))
        assert _holds(*args) and _defect_witness(*args) is None


# Work-count guard: wrap the block generators and count the blocks drawn.


def _count_blocks(monkeypatch, module, name, with_den=True):
    """Replace module.name by a wrapper that records, per call, the number
    of blocks drawn from the generator it returns."""
    drawn = []
    kernel = getattr(module, name)

    def counted(blocks, call):
        for block in blocks:
            drawn[call] += 1
            yield block

    def wrapper(*args, **kwargs):
        drawn.append(0)
        out = kernel(*args, **kwargs)
        if with_den:
            return counted(out[0], len(drawn) - 1), out[1]
        return counted(out, len(drawn) - 1)

    monkeypatch.setattr(module, name, wrapper)
    return drawn


def _draws(monkeypatch, inst, r, s):
    """Blocks drawn by the verdicts of operator_form_suite(inst, r) and by
    is_invariant(inst.algebra, s)."""
    planes = _count_blocks(monkeypatch, ybe_module, "_residual_blocks")
    blocks = _count_blocks(monkeypatch, operators_module, "_defect_blocks")
    inv = _count_blocks(monkeypatch, ybe_module, "_invariance_blocks", with_den=False)
    suite = operator_form_suite(inst, r)
    inv_passed = is_invariant(inst.algebra, s).passed
    monkeypatch.undo()
    return suite.details["all_pass"], inv_passed, planes, blocks, inv


def test_failing_verdicts_draw_one_block(monkeypatch):
    # A dense M4 tensor that solves nothing: each verdict reads plane 0 only
    # of 16 planes of 256 entries, block 0 only of 16 invariance blocks, and
    # the pair (0, 0) only, the first of 17 pieces, of each operator table.
    a = matrix_algebra(4)
    rnd = random.Random(5)
    r = Tensor2(16, _matrix(rnd, 16, 16, (-2, -1, 0, 1, 2)))
    inst = YbeInstance(a, 1)
    passed, inv_passed, planes, blocks, inv = _draws(
        monkeypatch, inst, r, extended_symmetrizer(inst, r))
    assert not passed and not inv_passed
    assert planes == [1] and blocks == [1, 1, 1, 1] and inv == [1]


@pytest.mark.parametrize("case", ("M4-unit", "B1-family"))
def test_passing_verdicts_draw_every_block(case, monkeypatch):
    if case == "M4-unit":
        a, mu = matrix_algebra(4), Fraction(-1, 2)
        r = Tensor2(16, tuple(tuple(mu * x * y for y in a.unit) for x in a.unit))
        s = invariant_symmetric_basis(a)[0]  # the trace form
    else:
        e = entry("B1")
        a, mu = e.algebra, 2
        r = e.families[0].tensor(mu)
        s = extended_symmetrizer(YbeInstance(a, mu), r)
    n = a.dim
    passed, inv_passed, planes, blocks, inv = _draws(monkeypatch, YbeInstance(a, mu), r, s)
    assert passed and inv_passed
    # An operator table on the n-dimensional dual module comes in n + 1
    # pieces: block 0 in two.
    assert planes == [n] and blocks == [n + 1] * 4 and inv == [n]
