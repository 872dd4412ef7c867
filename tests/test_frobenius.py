from fractions import Fraction

import pytest

from ybekit import (
    BilinearForm,
    Degenerate,
    LinearMap,
    NotInvariantForm,
    NotSymmetricForm,
    PreconditionViolated,
    Tensor2,
    YbeInstance,
    augmentation_form,
    frobenius_from_form,
    frobenius_suite,
    identity,
    induced_operators,
    invert,
    is_invariant,
    nhacybe_residual,
    proportional_lambda,
    rb_bridge_suite,
    residual_is_zero,
    rota_baxter_residual,
    t2_from_entries,
    t2_zero,
    trace_form,
)
from ybekit.frobenius import form_is_invariant
from ybekit.linalg import mat_mul, transpose
from ybekit.operators import _induced_pair

from helpers import M2_SKEW, a2_solution, alg, entry, inst, random_tensor, rng, typed_tree


def test_a2_forms_give_diagonal_tensors():
    e = entry("A2")
    assert e.forms["B1"].phi.coeff == ((1, 0), (0, 1))
    assert e.forms["B2"].phi.coeff == ((1, 0), (0, -1))


def test_trace_form_small():
    a1, f1 = trace_form(1)
    assert f1.form.gram == ((1,),)
    a2, f2 = trace_form(2)
    g = f2.form.gram
    assert g[0][0] == 1 and g[3][3] == 1  # B(E11, E11), B(E22, E22)
    assert g[1][2] == 1 and g[2][1] == 1  # B(E12, E21)
    assert g[0][3] == 0
    expected_phi = t2_from_entries(4, {(0, 0): 1, (3, 3): 1, (1, 2): 1, (2, 1): 1})
    assert f2.phi == expected_phi
    assert f2.phi.is_symmetric() and is_invariant(a2, f2.phi).passed


def test_phi_is_always_symmetric_invariant():
    # one direction of the form <-> tensor dictionary
    for name in ("A2", "B1", "M2"):
        for frob in entry(name).forms.values():
            assert frob.phi.is_symmetric()
            assert is_invariant(frob.algebra, frob.phi).passed


def test_tensor_to_form_direction():
    # the other direction: a symmetric invariant nondegenerate tensor gives a
    # valid form with the original tensor back
    for name in ("A2", "B1", "M2"):
        for frob in entry(name).forms.values():
            gram = invert(frob.phi.coeff)
            rebuilt = frobenius_from_form(frob.algebra,
                                          BilinearForm(frob.algebra, gram))
            assert rebuilt.phi == frob.phi


def test_form_validation_errors():
    a2 = alg("A2")
    with pytest.raises(NotSymmetricForm):
        frobenius_from_form(a2, BilinearForm(a2, ((1, 1), (0, 1))))
    # symmetric, invertible, but pairs the two idempotents: not invariant
    with pytest.raises(NotInvariantForm):
        frobenius_from_form(a2, BilinearForm(a2, ((0, 1), (1, 0))))
    with pytest.raises(Degenerate):
        frobenius_from_form(a2, BilinearForm(a2, ((1, 0), (0, 0))))


def test_induced_operator_table_on_m2():
    e = entry("M2")
    r0 = e.families[0].tensor(-1)  # E12 (x) E21 - E11 (x) E22
    p, pt = induced_operators(e.forms["trace"], r0)
    cols = tuple(zip(*p.matrix))
    assert cols[0] == (0, 0, 0, -1)  # E11 -> -E22
    assert cols[2] == (0, 0, 1, 0)   # E21 -> E21
    assert cols[1] == (0, 0, 0, 0) and cols[3] == (0, 0, 0, 0)
    assert residual_is_zero(rota_baxter_residual(e.algebra, p, -1))
    assert residual_is_zero(rota_baxter_residual(e.algebra, pt, -1))


def test_induced_operators_degenerate_cases():
    e = entry("M2")
    p, pt = induced_operators(e.forms["trace"], t2_zero(4))
    assert p.is_zero() and pt.is_zero()
    p, pt = induced_operators(e.forms["trace"], e.forms["trace"].phi)
    assert p.matrix == identity(4) and pt.matrix == identity(4)


@pytest.mark.parametrize("seed", range(8))
def test_induced_pair_is_the_dense_pair_of_products(seed):
    # on a non-symmetric m, so that r^t m and r m are told from r^t m^t and r m^t
    g = rng(2950 + seed)
    n = 2 + seed % 3

    def matrix(dens):
        return tuple(tuple(Fraction(g.choice((-3, -1, 0, 0, 1, 2)), g.choice(dens))
                           for _ in range(n)) for _ in range(n))
    r = Tensor2(n, matrix((1, 1, 2) if seed % 2 else (1,)))
    m = matrix((1, 2, 3))
    if m == transpose(m):
        m = (tuple(x + (j == 1) for j, x in enumerate(m[0])), *m[1:])
    want = LinearMap(mat_mul(transpose(r.coeff), m)), LinearMap(mat_mul(r.coeff, m))
    assert typed_tree(_induced_pair(r, m)) == typed_tree(want)


def test_frobenius_suite_example():
    e = entry("M2")
    rep = frobenius_suite(e.forms["trace"], -1, e.families[0].tensor(-1))
    assert rep.passed and rep.details["all_pass"]
    rep = frobenius_suite(e.forms["trace"], 0, t2_zero(4))
    assert rep.passed and rep.details["all_pass"]


def test_frobenius_suite_agreement():
    r = rng(51)
    cases = [(entry("M2").forms["trace"], 4), (entry("A2").forms["B1"], 2)]
    for frob, n in cases:
        for mu in (0, 1, -1):
            for _ in range(15):
                rep = frobenius_suite(frob, mu, random_tensor(r, n))
                assert rep.passed


def test_bridge_on_catalog_families():
    for name in ("A2", "B1"):
        e = entry(name)
        for mu in (1, Fraction(-3, 5)):
            for f in e.families:
                rep = rb_bridge_suite(e.forms[f.form], mu,
                                      f.weight_sign * mu, f.tensor(mu))
                assert rep.passed and rep.details["all_pass"], (name, f.name)


def test_bridge_weight_zero_skew():
    e = entry("M2")
    rep = rb_bridge_suite(e.forms["trace"], 0, 0, M2_SKEW)
    assert rep.passed and rep.details["all_pass"]


def test_bridge_precondition():
    e = entry("A2")
    with pytest.raises(PreconditionViolated):
        rb_bridge_suite(e.forms["B1"], 1, 1, a2_solution(1))  # wrong lam sign


def test_proportional_lambda():
    e = entry("A2")
    i1 = inst("A2", 1)
    assert proportional_lambda(e.forms["B1"], i1, a2_solution(1)) == -1
    assert proportional_lambda(e.forms["B1"], i1, a2_solution(3)) == 1
    assert proportional_lambda(e.forms["B2"], i1, a2_solution(5)) == -1
    # r5's symmetrizer is proportional to the second form only
    assert proportional_lambda(e.forms["B1"], i1, a2_solution(5)) is None
    i0 = inst("M2", 0)
    assert proportional_lambda(entry("M2").forms["trace"], i0, M2_SKEW) == 0


def test_bridge_matches_catalog_weights():
    e = entry("A2")
    i2 = inst("A2", 2)
    for f in e.families:
        lam = proportional_lambda(e.forms[f.form], i2, f.tensor(2))
        assert lam == f.weight_sign * 2


def test_augmentation_form():
    a2 = alg("A2")
    aug = entry("A2").augmentations[0]
    b = augmentation_form(a2, aug)
    assert b.gram == ((1, 0), (0, 0))
    assert b.is_symmetric() and form_is_invariant(a2, b)
    for name in ("A1", "B1", "B2", "B3", "B4", "B5"):
        a = alg(name)
        for aug in entry(name).augmentations:
            b = augmentation_form(a, aug)
            assert b.is_symmetric() and form_is_invariant(a, b)
            from ybekit.linalg import rank
            assert rank(b.gram) == 1  # degenerate whenever dim > 1


def test_augmentation_form_rejects_invalid():
    from ybekit import Augmentation, InvalidAugmentation
    a2 = alg("A2")
    with pytest.raises(InvalidAugmentation):
        augmentation_form(a2, Augmentation(a2, (1, 1)))


def test_nondegenerate_augmentation_form_needs_dim_one():
    from ybekit import unitization
    out, aug = unitization(())
    b = augmentation_form(out, aug)
    assert b.gram == ((1,),)
    frob = frobenius_from_form(out, b)
    assert frob.phi.coeff == ((1,),)
