"""Every operator identity against the per-pair reference loops in helpers:
exact equality of the defect tables on integer and rational maps, and of the
suite reports on the catalog."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybekit import (
    Bimodule,
    DimensionMismatch,
    LinearMap,
    Tensor2,
    WeightOp,
    YbeInstance,
    adjoint_bimodule,
    associated_algebra,
    check_bimodule,
    dual_regular_bimodule,
    frobenius_suite,
    o_operator_residual,
    operator_form_suite,
    pair_identity_residual,
    rb_system_residual,
    rota_baxter_residual,
    succ_prec_bimodule,
    t2_zero,
    unit_square,
)
from ybekit.algebras import make_algebra
from ybekit.dendriform import Dendriform
from ybekit.frobenius import induced_operators
from ybekit.linalg import unit_vec
from ybekit.ybe import invariant_symmetric_basis

from helpers import (
    ALL_NAMES,
    M2_SKEW,
    alg,
    entry,
    random_symmetrized_invariant,
    random_tensor,
    reference_frobenius_suite,
    reference_o_operator_residual,
    reference_operator_form_suite,
    reference_pair_identity_residual,
    reference_rb_system_residual,
    reference_rota_baxter_residual,
    rng,
)

SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))
NAMES = st.sampled_from(ALL_NAMES)
WEIGHT_KINDS = ("zero", "scalar", "right_twist", "left_twist")


def _matrix(data, rows, cols):
    flat = data.draw(st.lists(SCALARS, min_size=rows * cols, max_size=rows * cols))
    return tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))


def _direct_sum(v, w):
    """The bimodule V (+) W, with block-diagonal actions."""
    def blocks(x, y):
        return tuple(tuple(r) + (0,) * w.dim for r in x) + \
            tuple((0,) * v.dim + tuple(r) for r in y)
    return Bimodule(v.algebra, v.dim + w.dim,
                    tuple(blocks(x, y) for x, y in zip(v.left, w.left)),
                    tuple(blocks(x, y) for x, y in zip(v.right, w.right)))


def _augmentation_module(aug):
    """The ground field as a bimodule, both actions through the augmentation."""
    acts = tuple(((e,),) for e in aug.eps)
    return Bimodule(aug.algebra, 1, acts, acts)


def _m2_split():
    """M2 split through a weight-zero operator: x < y = x P(y), x > y = P(x) y."""
    e = entry("M2")
    a = e.algebra
    p, _ = induced_operators(e.forms["trace"], M2_SKEW)
    cols = tuple(zip(*p.matrix))
    prec = tuple(tuple(a.mul(unit_vec(4, i), cols[j]) for j in range(4)) for i in range(4))
    succ = tuple(tuple(a.mul(cols[i], unit_vec(4, j)) for j in range(4)) for i in range(4))
    return Dendriform(4, prec, succ)


def _modules(kind, name):
    """(algebra, bimodule) pairs of one kind; "other-dim" modules have a
    dimension different from the algebra's."""
    e = entry(name)
    a = e.algebra
    if kind == "adjoint":
        return [(a, adjoint_bimodule(a))]
    if kind == "dual-regular":
        return [(a, dual_regular_bimodule(a))]
    out = [(a, _direct_sum(adjoint_bimodule(a), dual_regular_bimodule(a)))]
    out += [(a, _augmentation_module(aug)) for aug in e.augmentations]
    return out


def _weight(data, kind, n, m):
    if kind == "zero":
        return WeightOp.zero()
    if kind == "scalar":
        lam = data.draw(SCALARS)
        return WeightOp.scalar(lam, tuple(tuple(_matrix(data, m, m)) for _ in range(m)))
    twist = _matrix(data, n, m)
    return WeightOp.right_twist(twist) if kind == "right_twist" else WeightOp.left_twist(twist)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("module", ("adjoint", "dual-regular", "other-dim"))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_o_operator_residual_matches_reference(module, kind, data):
    name = data.draw(NAMES)
    a, v = data.draw(st.sampled_from(_modules(module, name)))
    assert check_bimodule(v).passed
    alpha = LinearMap(_matrix(data, a.dim, v.dim))
    w = _weight(data, kind, a.dim, v.dim)
    assert o_operator_residual(a, v, alpha, w) == reference_o_operator_residual(a, v, alpha, w)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_o_operator_residual_matches_reference_on_dendriform_module(kind, data):
    d = _m2_split()
    a, v = associated_algebra(d), succ_prec_bimodule(d)
    alpha = LinearMap(_matrix(data, a.dim, v.dim))
    w = _weight(data, kind, a.dim, v.dim)
    assert o_operator_residual(a, v, alpha, w) == reference_o_operator_residual(a, v, alpha, w)


@pytest.mark.parametrize("n, m", [(0, 0), (0, 2), (2, 0)])
@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_o_operator_residual_in_dimension_zero(n, m, kind):
    a = alg("A2") if n else make_algebra(0, ())
    v = Bimodule(a, m, tuple(((0,) * m,) * m for _ in range(n)),
                 tuple(((0,) * m,) * m for _ in range(n)))
    alpha = LinearMap(((),) * n)
    w = {"zero": WeightOp.zero(), "scalar": WeightOp.scalar(2, (((0,) * m,) * m,) * m),
         "right_twist": WeightOp.right_twist(((),) * n),
         "left_twist": WeightOp.left_twist(((),) * n)}[kind]
    table = o_operator_residual(a, v, alpha, w)
    assert table == reference_o_operator_residual(a, v, alpha, w)
    assert table == ((((),) * m,) * m if not n else ())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rota_baxter_and_rb_system_match_reference(data):
    a = alg(data.draw(NAMES))
    p = LinearMap(_matrix(data, a.dim, a.dim))
    s = LinearMap(_matrix(data, a.dim, a.dim))
    lam = data.draw(SCALARS)
    assert rota_baxter_residual(a, p, lam) == reference_rota_baxter_residual(a, p, lam)
    assert rb_system_residual(a, p, s) == reference_rb_system_residual(a, p, s)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pair_identity_matches_reference(data):
    e = entry(data.draw(st.sampled_from([x for x in ALL_NAMES if entry(x).augmentations])))
    aug = data.draw(st.sampled_from(e.augmentations))
    r = Tensor2(e.algebra.dim, _matrix(data, e.algebra.dim, e.algebra.dim))
    mu = data.draw(SCALARS)
    assert pair_identity_residual(e.algebra, aug, r, mu) == \
        reference_pair_identity_residual(e.algebra, aug, r, mu)


def _suite_tensors(name, mu):
    """Solutions (up to four catalog families, mu 1 (x) 1, the zero tensor), their
    perturbations, and random integer, rational and symmetrized-invariant
    tensors."""
    e = entry(name)
    a = e.algebra
    n = a.dim
    r = rng(sum(map(ord, name)) + int(2 * mu))
    sols = [t2_zero(n), unit_square(a).scale(mu)]
    sols += [f.tensor(mu) for f in e.families[:4]] if mu != 0 else []
    sols += [M2_SKEW] if name == "M2" and mu == 0 else []
    bump = Tensor2(n, tuple(tuple(int(i == j == 0) for j in range(n)) for i in range(n)))
    out = sols + [t.add(bump) for t in sols]
    out += [random_tensor(r, n) for _ in range(2)]
    out += [random_tensor(r, n).scale(Fraction(1, 3)) for _ in range(2)]
    basis = invariant_symmetric_basis(a)
    out += [random_symmetrized_invariant(r, YbeInstance(a, mu), basis) for _ in range(2)]
    return out


@pytest.mark.parametrize("mu", (0, 1, Fraction(-1, 2)), ids=("0", "1", "-1/2"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_suites_match_reference_on_catalog(name, mu):
    e = entry(name)
    inst = YbeInstance(e.algebra, mu)
    for t in _suite_tensors(name, mu):
        assert operator_form_suite(inst, t).to_json() == \
            reference_operator_form_suite(inst, t).to_json()
        for f in e.forms.values():
            assert frobenius_suite(f, mu, t).to_json() == \
                reference_frobenius_suite(f, mu, t).to_json()


@pytest.mark.parametrize("bad", [((1, 0, 0), (0, 1, 0)), ((1, 0),)], ids=["wide", "short"])
def test_shape_errors_raise_dimension_mismatch(bad):
    a = alg("A2")
    adj = adjoint_bimodule(a)
    ok = LinearMap(((1, 0), (0, 1)))
    with pytest.raises(DimensionMismatch):
        o_operator_residual(a, adj, LinearMap(bad), WeightOp.zero())
    with pytest.raises(DimensionMismatch):
        o_operator_residual(a, adj, ok, WeightOp.right_twist(bad))
    with pytest.raises(DimensionMismatch):
        o_operator_residual(a, adj, ok, WeightOp.left_twist(bad))
    with pytest.raises(DimensionMismatch):
        o_operator_residual(a, adj, ok, WeightOp.scalar(1, (bad, bad)))
    with pytest.raises(DimensionMismatch):
        rota_baxter_residual(a, LinearMap(bad), 1)
    with pytest.raises(DimensionMismatch):
        rb_system_residual(a, ok, LinearMap(bad))
