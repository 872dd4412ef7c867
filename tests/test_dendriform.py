from fractions import Fraction

import pytest

from ybekit import (
    Dendriform,
    LinearMap,
    NotDendriform,
    PreconditionViolated,
    UndefinedProduct,
    WeightOp,
    YbeInstance,
    action_bimodule,
    associated_algebra,
    check_algebra,
    check_bimodule,
    check_dendriform,
    dendriform_solutions,
    identity,
    is_symmetrized_invariant,
    lift_o_operator,
    nhacybe_residual,
    o_operator_residual,
    residual_is_zero,
    rota_baxter_residual,
    succ_prec_bimodule,
    unital_extension,
)
from ybekit.frobenius import induced_operators
from ybekit.linalg import unit_vec

from helpers import ALL_NAMES, M2_SKEW, entry, outcome, reference_unital_extension


def _line(p, q):
    return Dendriform(1, (((p,),),), (((q,),),))


def _zero2():
    z = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    return Dendriform(2, z, z)


def _from_weight_zero_rb():
    # splitting an algebra product through a weight-zero operator:
    # x < y = x P(y), x > y = P(x) y
    e = entry("M2")
    alg = e.algebra
    p, _ = induced_operators(e.forms["trace"], M2_SKEW)
    cols = tuple(zip(*p.matrix))
    prec = tuple(tuple(alg.mul(unit_vec(4, i), cols[j]) for j in range(4))
                 for i in range(4))
    succ = tuple(tuple(alg.mul(cols[i], unit_vec(4, j)) for j in range(4))
                 for i in range(4))
    return Dendriform(4, prec, succ)


@pytest.mark.parametrize("p, q, ok", [
    (1, 0, True), (0, 1, True), (0, 0, True), (2, 0, True), (1, 1, False),
    (2, 3, False),
])
def test_line_axioms(p, q, ok):
    assert check_dendriform(_line(p, q)).passed == ok


def test_zero_tables_pass():
    assert check_dendriform(_zero2()).passed


def test_rb_split_is_dendriform():
    d = _from_weight_zero_rb()
    assert check_dendriform(d).passed
    alg = associated_algebra(d)
    assert check_algebra(alg).passed
    bim = succ_prec_bimodule(d)
    assert check_bimodule(bim).passed
    assert residual_is_zero(o_operator_residual(
        alg, bim, LinearMap(identity(4)), WeightOp.zero()))


def test_associated_algebra_line():
    alg = associated_algebra(_line(1, 0))
    assert alg.sc == (((1,),),)
    assert alg.unit is None
    assert associated_algebra(_zero2()).sc[0][0] == (0, 0)


def test_associated_algebra_rejects_bad_tables():
    with pytest.raises(NotDendriform):
        associated_algebra(_line(1, 1))


def test_line_bimodule_and_identity_operator():
    d = _line(1, 0)
    bim = succ_prec_bimodule(d)
    assert bim.left[0] == ((0,),)   # left action through > vanishes
    assert bim.right[0] == ((1,),)  # right action through < is the identity
    assert check_bimodule(bim).passed
    alg = associated_algebra(d)
    ident = LinearMap(identity(1))
    assert residual_is_zero(o_operator_residual(
        alg, bim, ident, WeightOp.zero()))
    for lam in (1, -1, 2):
        lifted = lift_o_operator(alg, bim, ident, lam)
        assert residual_is_zero(
            rota_baxter_residual(lifted.algebra, lifted.hat, lam))


def test_unital_extension_line():
    alg, ud = unital_extension(_line(1, 0))
    assert alg.dim == 2
    assert check_algebra(alg).passed
    assert alg.unit == (1, 0)
    assert alg.sc[1][1] == (0, 1)  # a * a = a
    # unit rules: a < 1 = a, 1 > a = a, a > 1 = 1 < a = 0
    assert ud.left_product((0, 1), (1, 0)) == (0, 1)
    assert ud.right_product((1, 0), (0, 1)) == (0, 1)
    assert ud.right_product((0, 1), (1, 0)) == (0, 0)
    assert ud.left_product((1, 0), (0, 1)) == (0, 0)
    with pytest.raises(UndefinedProduct):
        ud.left_product((1, 0), (1, 0))
    with pytest.raises(UndefinedProduct):
        ud.right_product((1, 1), (1, 0))


def test_action_bimodule_is_bimodule_with_operator():
    for d in (_line(1, 0), _line(0, 1), _zero2(), _from_weight_zero_rb()):
        alg, ud = unital_extension(d)
        act = action_bimodule(ud)
        assert check_bimodule(act).passed
        assert residual_is_zero(o_operator_residual(
            alg, act, LinearMap(identity(alg.dim)), WeightOp.zero()))


def test_dendriform_solutions_trivial():
    _, ud = unital_extension(_line(1, 0))
    out = dendriform_solutions(ud, LinearMap(((0, 0), (0, 0))), 1, 0)
    assert out.r1.is_zero() and out.r2.is_zero()


def test_dendriform_solutions_line_search_only_trivial():
    # exhaustive search over maps with entries in {0, +-1, +-1/2}: the only
    # admissible pair is the zero map at mu = 0
    from fractions import Fraction
    from itertools import product
    _, ud = unital_extension(_line(1, 0))
    half = Fraction(1, 2)
    hits = []
    for mu in (0, 1):
        for combo in product((0, 1, -1, half, -half), repeat=4):
            beta = LinearMap((combo[:2], combo[2:]))
            try:
                out = dendriform_solutions(ud, beta, 1, mu)
            except PreconditionViolated:
                continue
            hits.append((mu, combo, out.r1.is_zero()))
    assert hits == [(0, (0, 0, 0, 0), True)]


def test_dendriform_solutions_zero_tables_nontrivial():
    # the two-dimensional zero dendriform admits a skew map off the dual,
    # yielding nonzero verified solutions in dimension six
    _, ud = unital_extension(_zero2())
    beta = LinearMap(((0, 0, 0), (0, 0, 2), (0, -2, 0)))
    for lam in (1, -1):
        out = dendriform_solutions(ud, beta, lam, 0)
        assert out.algebra.dim == 6
        assert not out.r1.is_zero()
        i = YbeInstance(out.algebra, 0)
        assert nhacybe_residual(i, out.r1).is_zero()
        assert nhacybe_residual(i, out.r2).is_zero()
        assert is_symmetrized_invariant(i, out.r1).passed


def test_dendriform_solutions_rejects_incompatible_mu():
    _, ud = unital_extension(_zero2())
    beta = LinearMap(((0, 0, 0), (0, 0, 1), (0, -1, 0)))
    with pytest.raises(PreconditionViolated) as err:
        dendriform_solutions(ud, beta, 1, 1)
    assert err.value.equation == "unit-compatibility"


def test_dendriform_solutions_rejects_unbalanced_beta():
    _, ud = unital_extension(_zero2())
    bad = LinearMap(((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(PreconditionViolated) as err:
        dendriform_solutions(ud, bad, 1, 0)
    assert err.value.equation == "balanced-homomorphism"


def _split_catalog(name, side):
    """A catalog algebra's product put whole on one side: prec = sc, succ = 0
    or the other way round, a dendriform algebra for any associative sc."""
    a = entry(name).algebra
    zero = tuple(tuple((0,) * a.dim for _ in range(a.dim)) for _ in range(a.dim))
    return Dendriform(a.dim, *((a.sc, zero) if side == "prec" else (zero, a.sc)))


_EXTENSION_CASES = {
    "zero0": lambda: Dendriform(0, (), ()),
    **{f"line{p}{q}": (lambda p=p, q=q: _line(p, q))
       for p, q in ((1, 0), (0, 1), (0, 0), (2, 0), (Fraction(1, 2), 0), (1, 1), (2, 3))},
    "zero2": _zero2,
    "rb-split": _from_weight_zero_rb,
    **{f"{name}-{side}": (lambda name=name, side=side: _split_catalog(name, side))
       for name in ALL_NAMES for side in ("prec", "succ")},
}


@pytest.mark.parametrize("case", _EXTENSION_CASES)
def test_unital_extension_matches_its_reference(case):
    d = _EXTENSION_CASES[case]()
    assert outcome(unital_extension, d) == outcome(reference_unital_extension, d)
