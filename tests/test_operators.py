from fractions import Fraction

import pytest

from ybekit import (
    LinearMap,
    NotInvariant,
    NotSymmetric,
    PreconditionViolated,
    SingularMatrix,
    WeightOp,
    YbeInstance,
    adjoint_bimodule,
    check_bimodule,
    check_bimodule_algebra,
    dual_map,
    dual_operator_suite,
    dual_regular_bimodule,
    extended_symmetrizer,
    identity,
    invariant_dual_product,
    invariant_operator_suite,
    invariant_symmetric_basis,
    invert,
    nhacybe_residual,
    o_operator_residual,
    operator_form_suite,
    rb_system_residual,
    residual_is_zero,
    rota_baxter_residual,
    sharp,
    t2_basis,
    t2_from_entries,
    t2_zero,
    tensor_from_dual_product,
    tensor_of_sharp,
    tsharp,
)
from ybekit.frobenius import induced_operators

from helpers import (
    M2_SKEW,
    a2_solution,
    alg,
    entry,
    inst,
    random_matrix,
    random_symmetrized_invariant,
    random_tensor,
    regular_bimodule_algebra,
    rng,
    zero_map,
)


def test_sharp_reads_first_slot():
    r = t2_basis(2, 0, 1)  # e1 (x) e2
    m = sharp(r)
    assert m.apply((1, 0)) == (0, 1)  # dual basis vector 1 goes to e2
    assert m.apply((0, 1)) == (0, 0)


def test_sharp_of_flip_is_tsharp():
    r = rng(41)
    for _ in range(20):
        t = random_tensor(r, 3)
        assert sharp(t.flip()).matrix == tsharp(t).matrix
        assert tensor_of_sharp(sharp(t)) == t


def test_nondegenerate_iff_invertible():
    invert(sharp(t2_from_entries(2, {(0, 0): 1, (1, 1): 2})).matrix)
    with pytest.raises(SingularMatrix):
        invert(sharp(t2_basis(2, 0, 0)).matrix)


def test_invariant_dual_product_example():
    a2 = alg("A2")
    b = invariant_dual_product(a2, t2_basis(2, 0, 0))
    # first dual vector squares to itself, everything else vanishes
    assert b.product[0][0] == (1, 0)
    assert b.product[0][1] == (0, 0)
    assert b.product[1][0] == (0, 0)
    assert b.product[1][1] == (0, 0)
    assert check_bimodule(b.bimodule).passed
    assert check_bimodule_algebra(b).passed


def test_invariant_dual_product_rejects_bad_input():
    a2 = alg("A2")
    with pytest.raises(NotSymmetric):
        invariant_dual_product(a2, t2_basis(2, 0, 1))
    with pytest.raises(NotInvariant):
        invariant_dual_product(
            a2, t2_basis(2, 0, 1).add(t2_basis(2, 1, 0)))


def test_dual_product_round_trip():
    r = rng(42)
    for name in ("A2", "B1", "M2"):
        a = alg(name)
        basis = invariant_symmetric_basis(a)
        for _ in range(10):
            s = t2_zero(a.dim)
            for b in basis:
                s = s.add(b.scale(r.choice((-2, -1, 0, 1, 2))))
            built = invariant_dual_product(a, s)
            assert tensor_from_dual_product(built) == s


def test_zero_tensor_gives_zero_product():
    b = invariant_dual_product(alg("A2"), t2_zero(2))
    assert all(v == (0, 0) for row in b.product for v in row)


def test_regular_bimodule_algebra_passes():
    for name in ("A2", "B4", "M2"):
        assert check_bimodule_algebra(regular_bimodule_algebra(alg(name))).passed


def test_corrupted_product_fails():
    b = regular_bimodule_algebra(alg("A2"))
    rows = [list(map(list, row)) for row in b.product]
    rows[0][1][0] += 1
    from ybekit import BimoduleAlgebra
    bad = BimoduleAlgebra(b.bimodule,
                          tuple(tuple(tuple(v) for v in row) for row in rows))
    assert not check_bimodule_algebra(bad).passed


def test_zero_operator_is_o_operator():
    a2 = alg("A2")
    adj = adjoint_bimodule(a2)
    assert residual_is_zero(o_operator_residual(
        a2, adj, zero_map(2), WeightOp.zero()))
    assert residual_is_zero(o_operator_residual(
        a2, adj, zero_map(2), WeightOp.scalar(3, a2.sc)))


def test_solution_sharp_is_right_twisted_operator():
    i1 = inst("A2", 1)
    a2 = alg("A2")
    r3 = a2_solution(3)
    sbar = extended_symmetrizer(i1, r3)
    neg = tuple(tuple(-x for x in row) for row in sharp(sbar).matrix)
    res = o_operator_residual(a2, dual_regular_bimodule(a2), sharp(r3),
                              WeightOp.right_twist(neg))
    assert residual_is_zero(res)


def test_rota_baxter_examples():
    a2 = alg("A2")
    q3 = LinearMap(((0, 0), (1, 0)))  # e1 -> e2, e2 -> 0
    assert residual_is_zero(rota_baxter_residual(a2, q3, 1))
    assert not residual_is_zero(rota_baxter_residual(a2, q3, -1))
    assert residual_is_zero(rota_baxter_residual(a2, zero_map(2), 5))
    for name in ("A2", "B3", "M2"):
        a = alg(name)
        lam = Fraction(2, 3)
        p = LinearMap(tuple(tuple(-lam if i == j else 0 for j in range(a.dim))
                            for i in range(a.dim)))
        assert residual_is_zero(rota_baxter_residual(a, p, lam))


def test_rota_baxter_is_scalar_weight_operator():
    r = rng(43)
    for name in ("A2", "B2"):
        a = alg(name)
        adj = adjoint_bimodule(a)
        for lam in (0, 1, -2):
            for _ in range(15):
                p = LinearMap(random_matrix(r, a.dim, a.dim))
                assert residual_is_zero(rota_baxter_residual(a, p, lam)) \
                    == residual_is_zero(o_operator_residual(
                        a, adj, p, WeightOp.scalar(lam, a.sc)))


def test_rb_system_trivial_and_weight_zero():
    a2 = alg("A2")
    d1, d2 = rb_system_residual(a2, zero_map(2), zero_map(2))
    assert residual_is_zero(d1) and residual_is_zero(d2)
    # a weight-zero operator P forms a system with itself
    m2 = alg("M2")
    p, _ = induced_operators(entry("M2").forms["trace"], M2_SKEW)
    assert residual_is_zero(rota_baxter_residual(m2, p, 0))
    d1, d2 = rb_system_residual(m2, p, p)
    assert residual_is_zero(d1) and residual_is_zero(d2)


def test_rb_system_from_skew_solution():
    m2 = alg("M2")
    p, pt = induced_operators(entry("M2").forms["trace"], M2_SKEW)
    neg_pt = LinearMap(tuple(tuple(-x for x in row) for row in pt.matrix))
    d1, d2 = rb_system_residual(m2, p, neg_pt)
    assert residual_is_zero(d1) and residual_is_zero(d2)


def test_operator_form_suite_on_catalog():
    i1 = inst("A2", 1)
    rep = operator_form_suite(i1, a2_solution(1))
    assert rep.passed and rep.details["all_pass"]
    rep = operator_form_suite(i1, t2_basis(2, 0, 0))
    assert rep.passed and not rep.details["all_pass"]
    assert set(rep.details["verdicts"].values()) == {False}
    rep = operator_form_suite(i1, t2_zero(2))
    assert rep.passed and rep.details["all_pass"]


def test_operator_form_suite_verdicts_agree_on_randoms():
    r = rng(44)
    for name in ("A1", "B4", "M2"):
        a = alg(name)
        for mu in (0, 1, -1, 2):
            i = YbeInstance(a, mu)
            for _ in range(10):
                assert operator_form_suite(i, random_tensor(r, a.dim)).passed


def test_invariant_operator_suite_branches():
    i1 = inst("A2", 1)
    rep = invariant_operator_suite(i1, a2_solution(1))
    assert rep.passed and rep.details["all_pass"]
    assert rep.details["branch"] == "weight--1"
    i0 = inst("M2", 0)
    rep = invariant_operator_suite(i0, M2_SKEW)
    assert rep.passed and rep.details["all_pass"]
    assert rep.details["branch"] == "weight-0"
    # perturbation that keeps the symmetrizer invariant but kills the solution
    bad = a2_solution(1).add(t2_basis(2, 0, 0))
    rep = invariant_operator_suite(i1, bad)
    assert rep.passed and not rep.details["all_pass"]


def test_invariant_operator_suite_precondition():
    # 2 e1 (x) e2 leaves an off-diagonal symmetrizer, which is not invariant
    i1 = inst("A2", 1)
    with pytest.raises(PreconditionViolated):
        invariant_operator_suite(i1, t2_basis(2, 0, 1).scale(2))


def test_invariant_operator_suite_agreement_on_constructed():
    r = rng(45)
    for name in ("A2", "B1", "B4", "M2"):
        a = alg(name)
        basis = invariant_symmetric_basis(a)
        for mu in (0, 1, -1, 2):
            i = YbeInstance(a, mu)
            for _ in range(8):
                t = random_symmetrized_invariant(r, i, basis)
                assert invariant_operator_suite(i, t).passed


def test_dual_operator_suite_catalog_instance():
    a2 = alg("A2")
    i1 = inst("A2", 1)
    r1 = a2_solution(1)
    sbar = extended_symmetrizer(i1, r1)
    b = invariant_dual_product(a2, sbar)
    rep = dual_operator_suite(a2, b, sharp(r1), 1)
    assert rep.passed and rep.details["all_pass"]
    assert rep.details["branch"] == "weight--1"
    # a non-solution satisfying the same symmetrizer relation: all four fail
    r = rng(46)
    seen_fail = 0
    for _ in range(20):
        t = random_symmetrized_invariant(r, i1, [])
        sb = extended_symmetrizer(i1, t)
        assert sb.is_zero()
        b0 = invariant_dual_product(a2, sb)
        rep = dual_operator_suite(a2, b0, sharp(t), 1)
        assert rep.passed
        seen_fail += not rep.details["all_pass"]
    assert seen_fail > 0


def test_dual_operator_suite_trivial():
    a2 = alg("A2")
    b = invariant_dual_product(a2, t2_zero(2))
    rep = dual_operator_suite(a2, b, zero_map(2, domain="dual"), 0)
    assert rep.passed and rep.details["all_pass"]
    assert rep.details["branch"] == "weight-0"


def test_dual_operator_suite_requires_compatible_map():
    a2 = alg("A2")
    b = invariant_dual_product(a2, t2_zero(2))
    with pytest.raises(PreconditionViolated) as err:
        dual_operator_suite(a2, b, LinearMap(identity(2), "dual"), 0)
    assert err.value.equation == "symmetrizer-relation"


def test_dual_map_is_transpose_pairing():
    r = rng(47)
    for _ in range(10):
        m = LinearMap(random_matrix(r, 3, 3), "dual")
        md = dual_map(m)
        for i in range(3):
            for j in range(3):
                ei = tuple(int(k == i) for k in range(3))
                ej = tuple(int(k == j) for k in range(3))
                assert m.apply(ej)[i] == md.apply(ei)[j]
