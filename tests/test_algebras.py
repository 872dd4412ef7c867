import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ybekit import (
    SingularMatrix,
    Augmentation,
    Bimodule,
    DimensionMismatch,
    NotAssociative,
    Tensor2,
    YbeInstance,
    adjoint_bimodule,
    algebra_from_products,
    check_algebra,
    check_augmentation,
    check_bimodule,
    dual_bimodule,
    dual_regular_bimodule,
    find_augmentations,
    grid_enumerate,
    identity,
    invariant_symmetric_basis,
    make_algebra,
    matrix_algebra,
    nhacybe_residual,
    semidirect_product,
    unitization,
)
from ybekit.algebras import is_unital_bimodule
from ybekit.linalg import transpose, unit_vec

from helpers import (
    ALL_NAMES,
    BASES,
    alg,
    augmentation_kernel_basis,
    eager_action_tables,
    entry,
    outcome,
    rebased,
    reference_check_algebra,
    reference_check_augmentation,
    reference_invert,
    reference_products,
    reference_unitization,
)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_algebras_pass(name):
    assert check_algebra(alg(name)).passed


def test_one_dimensional_idempotent():
    a = make_algebra(1, (((1,),),), unit=(1,))
    assert check_algebra(a).passed


def test_bad_unit_detected():
    # e1 e1 = e2, e2 e2 = e1 with e1 declared as unit fails (it is not even
    # associative, so the first witness is an associativity triple)
    a = algebra_from_products(2, {(0, 0): {1: 1}, (1, 1): {0: 1}}, unit=(1, 0))
    assert not check_algebra(a).passed
    # associative table with the wrong unit: only the unit law breaks
    b = algebra_from_products(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, unit=(1, 0))
    rep = check_algebra(b)
    assert not rep.passed and rep.witness["kind"] == "unit"


def test_nonassociative_detected():
    a = algebra_from_products(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    rep = check_algebra(a)
    assert not rep.passed and rep.witness["kind"] == "associativity"


def test_adjoint_matrices():
    a2 = alg("A2")
    adj = adjoint_bimodule(a2)
    assert adj.left[0] == ((1, 0), (0, 0))  # left action of e1 on A2
    a1 = alg("A1")
    r2 = adjoint_bimodule(a1).right[1]
    assert tuple(zip(*r2))[0] == (0, 1)  # e1 . e2 = e2
    assert tuple(zip(*r2))[1] == (0, 0)  # e2 . e2 = 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_acts_as_identity(name):
    a = alg(name)
    adj = adjoint_bimodule(a)
    assert adj.lmat(a.unit) == identity(a.dim)
    assert adj.rmat(a.unit) == identity(a.dim)
    assert is_unital_bimodule(adj)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_adjoint_and_dual_pass(name):
    adj = adjoint_bimodule(alg(name))
    assert check_bimodule(adj).passed
    dual = dual_bimodule(adj)
    assert check_bimodule(dual).passed
    # double dual restores the original action matrices
    dd = dual_bimodule(dual)
    assert dd.left == adj.left and dd.right == adj.right


def test_dual_of_b1_adjoint_is_transposed():
    adj = adjoint_bimodule(alg("B1"))
    dual = dual_bimodule(adj)
    assert dual.left[0] == transpose(adj.right[0])
    assert dual.right[0] == transpose(adj.left[0])


def _corrupt(bimodule, i, p, q, side="left"):
    tables = {"left": [list(map(list, m)) for m in bimodule.left],
              "right": [list(map(list, m)) for m in bimodule.right]}
    tables[side][i][p][q] += 1
    from ybekit import Bimodule
    return Bimodule(bimodule.algebra, bimodule.dim,
                    tuple(tuple(tuple(r) for r in m) for m in tables["left"]),
                    tuple(tuple(tuple(r) for r in m) for m in tables["right"]))


def test_corrupted_bimodule_fails():
    adj = adjoint_bimodule(alg("A2"))
    assert not check_bimodule(_corrupt(adj, 0, 0, 1)).passed


@pytest.mark.parametrize("side", ["left", "right"])
def test_every_action_matrix_is_square_in_the_module_dim(side):
    # an empty matrix is m x m only for m = 0, as the other matrix is
    a2 = alg("A2")
    good, short = (((1,),), ((0,),)), (((1,),), ())
    tables = {"left": good, "right": good, side: short}
    with pytest.raises(DimensionMismatch, match="action tables do not match dims"):
        Bimodule(a2, 1, tables["left"], tables["right"])
    assert Bimodule(a2, 1, good, good).dim == 1
    assert Bimodule(a2, 0, ((), ()), ((), ())).dim == 0


def test_semidirect_adjoint_passes():
    a2 = alg("A2")
    prod = semidirect_product(a2, adjoint_bimodule(a2))
    assert prod.dim == 4
    assert prod.unit == (1, 1, 0, 0)
    assert check_algebra(prod).passed


@pytest.mark.parametrize("name", ALL_NAMES)
def test_semidirect_dual_regular_passes(name):
    a = alg(name)
    prod = semidirect_product(a, dual_regular_bimodule(a))
    assert prod.unit is not None
    assert check_algebra(prod).passed


def test_semidirect_iff_bimodule():
    # corrupt entries one at a time: the product passes exactly when the
    # module does
    a2 = alg("A2")
    adj = adjoint_bimodule(a2)
    cases = [adj]
    for side in ("left", "right"):
        for i in range(2):
            for p in range(2):
                for q in range(2):
                    cases.append(_corrupt(adj, i, p, q, side))
    for v in cases:
        assert check_algebra(semidirect_product(a2, v)).passed \
            == check_bimodule(v).passed


def test_unitization_of_zero_line_is_a1():
    out, aug = unitization((((0,),),))
    a1 = alg("A1")
    assert out.sc == a1.sc and out.unit == a1.unit
    assert check_augmentation(out, aug).passed
    assert augmentation_kernel_basis(aug) == [(0, 1)]


def test_unitization_of_nothing_is_the_field():
    out, aug = unitization(())
    assert out.dim == 1 and out.sc == (((1,),),)
    assert check_augmentation(out, aug).passed


def test_unitization_rejects_nonassociative():
    # e1 e1 = e2, e1 e2 = e1: (e1 e1) e1 != e1 (e1 e1)
    with pytest.raises(NotAssociative):
        unitization((((0, 1), (1, 0)), ((0, 0), (0, 0))))


def test_augmentation_examples():
    a2 = alg("A2")
    assert check_augmentation(a2, Augmentation(a2, (1, 0))).passed
    rep = check_augmentation(a2, Augmentation(a2, (1, 1)))
    assert not rep.passed and rep.witness["kind"] == "multiplicative"
    b1 = alg("B1")
    assert check_augmentation(b1, Augmentation(b1, (0, 1, 0))).passed
    b4 = alg("B4")
    assert check_augmentation(b4, Augmentation(b4, (1, 0, 1))).passed


@pytest.mark.parametrize("name, count", [
    ("A1", 1), ("A2", 2), ("B1", 3), ("B2", 2), ("B3", 1), ("B4", 2),
    ("B5", 1), ("M2", 0),
])
def test_augmentation_grid_search(name, count):
    found = find_augmentations(alg(name))
    assert len(found) == count
    assert {tuple(a.eps) for a in found} \
        == {tuple(a.eps) for a in entry(name).augmentations}


def test_matrix_algebra():
    m1 = matrix_algebra(1)
    assert m1.dim == 1 and check_algebra(m1).passed
    m2 = matrix_algebra(2)
    assert check_algebra(m2).passed
    e12, e21 = unit_vec(4, 1), unit_vec(4, 2)
    assert m2.mul(e12, e21) == unit_vec(4, 0)  # E12 E21 = E11
    assert m2.mul(e21, e12) == unit_vec(4, 3)  # E21 E12 = E22
    assert m2.unit == (1, 0, 0, 1)


_ENTRIES = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def _tables(draw):
    """Random algebras: structure constants drawn at random (rarely
    associative), catalog algebras on a random rational basis (associative),
    and those with one constant changed; with no unit, the true one or a
    wrong one."""
    kind = draw(st.sampled_from(("random", "rebased", "perturbed")))
    if kind == "random":
        n = draw(st.integers(1, 4))
        sc = [[[draw(_ENTRIES) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        unit = draw(st.sampled_from((None, tuple(int(i == 0) for i in range(n)))))
        return make_algebra(n, sc, unit=unit)
    base = alg(draw(st.sampled_from(ALL_NAMES)))
    n = base.dim
    p = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    try:
        reference_invert(p)
    except SingularMatrix:
        assume(False)
    a = rebased(base, p)
    sc = [[list(v) for v in row] for row in a.sc]
    if kind == "perturbed":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        sc[i][j][k] += draw(st.sampled_from((1, -1, Fraction(1, 3))))
    unit = draw(st.sampled_from((None, a.unit, tuple(int(i == n - 1) for i in range(n)))))
    return make_algebra(n, sc, unit=unit)


@settings(max_examples=150, deadline=None)
@given(a=_tables())
def test_check_algebra_matches_dense_reference(a):
    assert check_algebra(a) == reference_check_algebra(a)


@pytest.mark.parametrize("a", [matrix_algebra(3),
                               semidirect_product(alg("B1"), dual_regular_bimodule(alg("B1"))),
                               make_algebra(0, ())], ids=("M3", "B1-dual", "zero"))
def test_check_algebra_matches_dense_reference_on_larger_algebras(a):
    assert check_algebra(a) == reference_check_algebra(a)


def test_check_algebra_matches_dense_reference_on_perturbed_tables():
    # One entry of M3, M2 or B3 moved: associativity is tested first with a
    # kept middle factor only, and the whole associator runs again for the
    # least failing triple, whose middle index is kept in some tables and
    # implied (`Algebra._implied_blocks`) in others.
    middles = set()
    for a in (matrix_algebra(3), alg("M2"), alg("B3")):
        rnd, n = random.Random(a.dim), a.dim
        for _ in range(40):
            sc = [[list(v) for v in row] for row in a.sc]
            i, j, k = (rnd.randrange(n) for _ in range(3))
            sc[i][j][k] += rnd.choice((1, -1, Fraction(1, 3)))
            b = make_algebra(n, sc, unit=a.unit)
            rep = check_algebra(b)
            assert rep == reference_check_algebra(b)
            if not rep.passed and rep.witness["kind"] == "associativity":
                middles.add(rep.witness["triple"][1] in b._implied_blocks[1])
    assert middles == {False, True}


def test_an_associative_table_is_checked_on_its_kept_middles(monkeypatch):
    # M4 keeps 7 of its 16 basis vectors: one associator run, over the
    # products whose middle factor is kept.
    import ybekit.algebras as algebras_module
    calls, associator = [], algebras_module._associator
    monkeypatch.setattr(algebras_module, "_associator",
                        lambda *args: calls.append(args) or associator(*args))
    a = matrix_algebra(4)
    assert check_algebra(a).passed
    kept = set(a._implied_blocks[0])
    (t1, _, _, t4, _), = calls
    assert {t[1] for t in t1} == {t[0] for t in t4} == kept
    assert len(t1) == len(t4) == 4 * len(kept)


def _named_algebra(name):
    if name in ("M3", "M4"):
        return matrix_algebra(int(name[1]))
    if name == "zero":
        return make_algebra(0, (), unit=())
    if name.endswith("-rebased"):
        base = name.removesuffix("-rebased")
        return rebased(alg(base), BASES[base])
    return alg(name)


@pytest.mark.parametrize("name", (*ALL_NAMES, "M3", "M4", "zero",
                                  *(f"{b}-rebased" for b in BASES)))
def test_unit_axiom_matches_dense_reference(name):
    a = _named_algebra(name)
    n = a.dim
    assert a.unit is not None
    wrong = [unit_vec(n, k) for k in range(n)]
    if n:
        shift = unit_vec(n, n - 1)
        wrong += [tuple(x + Fraction(c, 3) for x, c in zip(a.unit, shift)),
                  tuple(2 * x for x in a.unit)]
    for unit in (a.unit, None, *wrong):
        b = make_algebra(n, a.sc, unit=unit, basis=a.basis)
        assert check_algebra(b) == reference_check_algebra(b)
    # a shifted or a doubled unit is never a unit, nor is every basis vector
    assert sum(not check_algebra(make_algebra(n, a.sc, unit=u)).passed
               for u in wrong) >= min(n, 3)


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_one_sided_unit_is_not_a_unit(side):
    # e_i e_j = e_i (or e_j): every basis vector is a unit on one side only
    n = 3
    sc = [[unit_vec(n, i if side == "right" else j) for j in range(n)] for i in range(n)]
    for k in range(n):
        a = make_algebra(n, sc, unit=unit_vec(n, k))
        rep = check_algebra(a)
        assert rep == reference_check_algebra(a)
        assert rep.witness == {"kind": "unit", "basis_index": 0 if k else 1}


def _fresh_algebra(name):
    """A new Algebra, with no derived data built yet (the catalog keeps its
    algebras, and theirs, between tests): a catalog algebra, M3, the
    zero-dimensional algebra, or a catalog algebra on a rational basis."""
    if name == "M3":
        return matrix_algebra(3)
    if name == "zero":
        return make_algebra(0, ())
    if name.endswith("-rebased"):
        base = name.removesuffix("-rebased")
        return rebased(alg(base), BASES[base])
    a = alg(name)
    return make_algebra(a.dim, a.sc, unit=a.unit, basis=a.basis)


@pytest.mark.parametrize("name", (*ALL_NAMES, "M3", "zero", *(f"{b}-rebased" for b in BASES)))
def test_lazy_action_tables_match_the_eager_ones(name):
    a = _fresh_algebra(name)
    assert "_left" not in a.__dict__ and "_right" not in a.__dict__
    want = eager_action_tables(a)
    assert (a._left, a._right) == want
    v = adjoint_bimodule(a)
    assert (v.left, v.right) == want


@pytest.mark.parametrize("name", ("B1", "M3", "zero", "A2-rebased"))
def test_kernels_never_build_the_action_tables(name):
    a = _fresh_algebra(name)
    n = a.dim
    mu = 0 if a.unit is None else 1
    check_algebra(a)
    r = Tensor2(n, tuple(tuple((i + 2 * j) % 3 - 1 for j in range(n)) for i in range(n)))
    nhacybe_residual(YbeInstance(a, mu), r)
    invariant_symmetric_basis(a)
    if n <= 3:  # the grid search is exponential in n * n
        grid_enumerate(YbeInstance(a, mu), (0, 1))
    assert "_left" not in a.__dict__ and "_right" not in a.__dict__


# Unitization and augmentations against the bodies they had before the unit
# rows were shared with `unital_extension` and the cyclic loop was dropped.

_UNITIZE_EDGES = (
    (), (((0,),),), (((1,),),), (((-1,),),), (((2,),),), (((Fraction(1, 2),),),),
    (((0, 1), (1, 0)), ((0, 0), (0, 0))),  # not associative
)


@pytest.mark.parametrize("sc", [*_UNITIZE_EDGES, *(alg(name).sc for name in ALL_NAMES)],
                         ids=[*(f"edge{i}" for i in range(len(_UNITIZE_EDGES))), *ALL_NAMES])
def test_unitization_matches_its_reference(sc):
    assert outcome(unitization, sc) == outcome(reference_unitization, sc)


@settings(max_examples=100, deadline=None)
@given(a=_tables())
def test_unitization_matches_its_reference_on_random_tables(a):
    assert outcome(unitization, a.sc) == outcome(reference_unitization, a.sc)


_EPS = st.sampled_from((-1, 0, 1, Fraction(1, 2)))


@st.composite
def _augmented(draw):
    """An algebra of `_tables` (often not associative, with no unit, the true
    one or a wrong one) and eps over {-1, 0, 1, 1/2}.  Half the time the
    structure constants are moved so that eps is multiplicative on basis
    pairs, the only case in which the old cyclic loop ran at all."""
    a = draw(_tables())
    n = a.dim
    eps = [draw(_EPS) for _ in range(n)]
    if any(eps) and draw(st.booleans()):
        p = next(i for i, e in enumerate(eps) if e)
        sc = [[list(v) for v in row] for row in a.sc]
        for i in range(n):
            for j in range(n):
                v = sc[i][j]
                v[p] += Fraction(eps[i] * eps[j] - sum(e * x for e, x in zip(eps, v))) / eps[p]
        a = make_algebra(n, sc, unit=a.unit)
    return a, Augmentation(a, eps)


@settings(max_examples=200, deadline=None)
@given(case=_augmented())
def test_check_augmentation_matches_the_cyclic_reference(case):
    a, aug = case
    assert check_augmentation(a, aug) == reference_check_augmentation(a, aug)


@pytest.mark.parametrize("a, eps", [
    (make_algebra(0, ()), ()),
    (make_algebra(1, (((0,),),)), (0,)),
    (make_algebra(1, (((0,),),)), (1,)),
    (make_algebra(1, (((1,),),), unit=(1,)), (1,)),
    (make_algebra(1, (((2,),),)), (2,)),
    (make_algebra(1, (((Fraction(1, 2),),),), unit=(2,)), (Fraction(1, 2),)),
])
def test_check_augmentation_in_dimension_zero_and_one(a, eps):
    aug = Augmentation(a, eps)
    assert check_augmentation(a, aug) == reference_check_augmentation(a, aug)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_find_augmentations_matches_the_cyclic_reference(name):
    a = alg(name)
    grid = [Augmentation(a, e) for e in product((0, 1, -1), repeat=a.dim) if any(e)]
    assert find_augmentations(a) == [g for g in grid
                                     if reference_check_augmentation(a, g).passed]


_TABLE_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=6))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_products_match_the_dense_scan_on_the_catalog(name):
    for a in (alg(name), rebased(alg(name), BASES[name])) if name in BASES else (alg(name),):
        assert a._products == reference_products(a)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: st.lists(
    _TABLE_ENTRIES, min_size=n ** 3, max_size=n ** 3).map(lambda xs: (n, xs))))
def test_products_match_the_dense_scan(table):
    # Zero and nonzero product vectors with integral and fractional
    # entries: the same entries and denominator, types included.
    n, xs = table
    a = make_algebra(n, [[xs[(i * n + k) * n:(i * n + k + 1) * n] for k in range(n)]
                         for i in range(n)])
    got, want = a._products, reference_products(a)
    assert got == want
    assert [type(c) for *_, c in got[1]] == [int] * len(got[1]) and type(got[0]) is int
