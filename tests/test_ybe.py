from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybekit.ybe as ybe_module
from ybekit import (
    BudgetExceeded,
    NotAssociative,
    NotUnital,
    Tensor2,
    YbeInstance,
    aybp_residual,
    embed,
    extended_symmetrizer,
    grid_enumerate,
    invariant_symmetric_basis,
    is_invariant,
    is_symmetrized_invariant,
    nhacybe_residual,
    opposite_residual,
    t2_basis,
    t2_from_entries,
    t2_zero,
    triple_mul,
    unit_square,
)
from ybekit.algebras import make_algebra, matrix_algebra

from helpers import (
    ALL_NAMES,
    M2_SKEW,
    a2_solution,
    alg,
    brute_force_grid,
    entry,
    inst,
    random_tensor,
    random_unit_symmetrizer,
    rebased,
    reference_invariant_symmetric_basis,
    reference_residual_form,
    rng,
    slotwise_opposite_residual,
    slotwise_pair_residuals,
    slotwise_residual,
    typed,
)


def test_embed_slots():
    a2 = alg("A2")
    r = t2_basis(2, 0, 1)
    t12 = embed(r, 12, a2)
    # unit of A2 is e1 + e2, so the third slot is filled with (1, 1)
    assert t12.coeff[0][1] == (1, 1)
    assert t12.coeff[1][0] == (0, 0)
    t13 = embed(r, 13, a2)
    assert t13.coeff[0][0][1] == 1 and t13.coeff[0][1][1] == 1
    assert embed(t2_zero(2), 23, a2).is_zero()


def test_triple_mul_unit_acts_trivially():
    a2 = alg("A2")
    one = embed(unit_square(a2), 12, a2)  # 1 (x) 1 (x) 1
    r = rng(21)
    for _ in range(10):
        t = random_tensor(r, 2)
        t3 = embed(t, 13, a2)
        assert triple_mul(one, t3, a2) == t3
        assert triple_mul(t3, one, a2) == t3


def test_triple_mul_orthogonal_idempotents():
    a2 = alg("A2")
    e1 = embed(t2_basis(2, 0, 0), 12, a2)
    e2 = embed(t2_basis(2, 1, 1), 12, a2)
    # slots: (e1 e2) (x) ... with e1 e2 = 0 in the first slot wipes products
    prod = triple_mul(
        triple_mul(e1, e2, a2), e1, a2)
    assert prod.is_zero()


def test_triple_mul_matrix_units():
    m2 = alg("M2")
    x = embed(t2_from_entries(4, {(1, 1): 1}), 12, m2)  # E12 in slots 1, 2
    y = embed(t2_from_entries(4, {(2, 2): 1}), 12, m2)  # E21 in slots 1, 2
    out = triple_mul(x, y, m2)
    # E12 E21 = E11 slotwise; the third slot holds 1 . 1
    assert out.coeff[0][0][0] == 1 and out.coeff[0][0][3] == 1


def test_known_solutions():
    i1 = inst("A2", 1)
    assert nhacybe_residual(i1, a2_solution(3)).is_zero()
    assert nhacybe_residual(i1, t2_zero(2)).is_zero()
    for name in ALL_NAMES:
        for mu in (1, Fraction(1, 2), -2):
            i = inst(name, mu)
            assert nhacybe_residual(i, unit_square(alg(name)).scale(mu)).is_zero()


def test_residual_matches_slotwise_definition():
    # independent route: embed and multiply in the triple tensor algebra
    r = rng(31)
    for name in ("A2", "B1", "M2"):
        a = alg(name)
        for mu in (0, 1, -2):
            i = YbeInstance(a, mu)
            for _ in range(8):
                t = random_tensor(r, a.dim)
                assert slotwise_residual(i, t) == nhacybe_residual(i, t)


@pytest.mark.parametrize("mu", [0, 1, Fraction(-1, 2)])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_opposite_and_pair_residuals_match_slotwise_definitions(name, mu):
    # the pair is checked on a random s and on s = r - mu (1 (x) 1)
    r = rng(37)
    i = inst(name, mu)
    a = i.algebra
    for _ in range(3):
        t = random_tensor(r, a.dim)
        assert opposite_residual(i, t).coeff == slotwise_opposite_residual(i, t).coeff
        for s in (random_tensor(r, a.dim), t.sub(unit_square(a).scale(mu))):
            got, want = aybp_residual(a, t, s), slotwise_pair_residuals(a, t, s)
            assert [e.coeff for e in got] == [e.coeff for e in want]


def test_residual_form_matches_kernel():
    # the compiled quadratic form, evaluated on r, is the residual itself
    r = rng(36)
    for name in ALL_NAMES:
        a = alg(name)
        n = a.dim
        for mu in (0, 1, Fraction(-2, 3)):
            i = YbeInstance(a, mu)
            form = reference_residual_form(i)
            for _ in range(4):
                t = random_tensor(r, n)
                x = [c for row in t.coeff for c in row]
                got = {comp: sum(c * x[u] * x[v] for c, u, v in quad)
                       + sum(c * x[u] for c, u in lin)
                       for comp, quad, lin in form}
                want = nhacybe_residual(i, t).coeff
                for p in range(n):
                    for q in range(n):
                        for s in range(n):
                            assert got.get((p, q, s), 0) == want[p][q][s]


def test_instance_rejects_invalid_algebras():
    # e1 e1 = e2, every other product zero except e2 e1 = e1: (e2 e1) e1 = e2
    # but e2 (e1 e1) = e2 e2 = 0
    with pytest.raises(NotAssociative):
        YbeInstance(make_algebra(
            2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]), 0)
    # associative (A2's products) but the declared unit is only e1
    with pytest.raises(NotUnital):
        YbeInstance(make_algebra(
            2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], unit=(1, 0)), 1)


def test_opposite_examples():
    i1 = inst("A2", 1)
    assert opposite_residual(i1, a2_solution(3).flip()).is_zero()
    assert opposite_residual(i1, t2_zero(2)).is_zero()


def test_flip_exchanges_the_two_equations():
    # the defect of r in one equation is the outer-slot swap of the defect
    # of flip(r) in the opposite equation, entry for entry
    r = rng(32)
    for name in ("A2", "B2", "M2"):
        a = alg(name)
        for mu in (0, 1, -1):
            i = YbeInstance(a, mu)
            for _ in range(10):
                t = random_tensor(r, a.dim)
                assert nhacybe_residual(i, t) \
                    == opposite_residual(i, t.flip()).swap_outer()


def test_symmetrized_invariant_solutions_satisfy_both_forms():
    for name in ("A2", "B1"):
        e = entry(name)
        for mu in (1, -1):
            i = inst(name, mu)
            for f in e.families:
                t = f.tensor(mu)
                assert nhacybe_residual(i, t).is_zero()
                assert opposite_residual(i, t).is_zero()


def test_extended_symmetrizer_values():
    i1 = inst("A2", 1)
    phi1 = t2_from_entries(2, {(0, 0): 1, (1, 1): 1})
    assert extended_symmetrizer(i1, a2_solution(1)) == phi1
    assert extended_symmetrizer(i1, unit_square(alg("A2"))) == unit_square(alg("A2"))
    i0 = inst("M2", 0)
    assert extended_symmetrizer(i0, M2_SKEW).is_zero()


def test_extended_symmetrizer_is_symmetric():
    r = rng(33)
    for name in ("A2", "B3"):
        for mu in (0, 1, Fraction(-3, 5)):
            i = inst(name, mu)
            for _ in range(10):
                assert extended_symmetrizer(i, random_tensor(r, alg(name).dim)) \
                    .is_symmetric()


def test_invariance_examples():
    a2 = alg("A2")
    assert is_invariant(a2, t2_basis(2, 0, 0)).passed
    assert is_invariant(a2, t2_zero(2)).passed
    for name in ALL_NAMES:
        a = alg(name)
        assert not is_invariant(a, unit_square(a)).passed  # dim >= 2


@pytest.mark.parametrize("name, dim", [
    ("A1", 2), ("A2", 2), ("B1", 3), ("B2", 3), ("B3", 3), ("B4", 0),
    ("B5", 3), ("M2", 1),
])
def test_invariant_space_dimensions(name, dim):
    basis = invariant_symmetric_basis(alg(name))
    assert len(basis) == dim
    for t in basis:
        assert t.is_symmetric()
        assert is_invariant(alg(name), t).passed


def test_invariant_space_spans():
    assert [t.coeff for t in invariant_symmetric_basis(alg("A2"))] \
        == [((1, 0), (0, 0)), ((0, 0), (0, 1))]
    b1 = [t.coeff for t in invariant_symmetric_basis(alg("B1"))]
    diag = lambda k: tuple(tuple(int(i == j == k) for j in range(3))
                           for i in range(3))
    assert b1 == [diag(0), diag(1), diag(2)]


def _zero_algebra(n):
    return make_algebra(n, [[[0] * n for _ in range(n)] for _ in range(n)])


INVARIANT_CASES = [(name, lambda name=name: alg(name)) for name in ALL_NAMES] + [
    ("M3", lambda: matrix_algebra(3)),
    ("Z1", lambda: _zero_algebra(1)),
    ("Z2", lambda: _zero_algebra(2)),
    ("Z3", lambda: _zero_algebra(3)),
    ("A2-rational", lambda: rebased(alg("A2"), ((Fraction(1, 2), 1), (Fraction(2, 3), 1)))),
    ("B1-rational", lambda: rebased(alg("B1"), (
        (1, Fraction(1, 2), 0), (Fraction(-1, 3), 1, 0), (Fraction(1, 4), 2, Fraction(3, 5))))),
]


@pytest.mark.parametrize("name, build", INVARIANT_CASES, ids=[c[0] for c in INVARIANT_CASES])
def test_invariant_basis_matches_full_system(name, build):
    a = build()
    got = [t.coeff for t in invariant_symmetric_basis(a)]
    expected = [t.coeff for t in reference_invariant_symmetric_basis(a)]
    assert [typed(c) for c in got] == [typed(c) for c in expected]
    if name.startswith("Z"):
        assert len(got) == a.dim * (a.dim + 1) // 2


def test_invariant_system_has_one_unknown_per_pair(monkeypatch):
    # M3 has dimension 9: the full system is 9^3 invariance rows plus 36
    # antisymmetry rows in 81 unknowns, 765 x 81.  One unknown per pair
    # {i, j} and no zero or repeated rows leave 132 x 45, and only the 5
    # blocks of E11, E12, E13, E21 and E31 that no product of two earlier
    # matrix units implies leave 114 x 45.
    shapes = []
    kernel = ybe_module._kernel
    monkeypatch.setattr(ybe_module, "_kernel", lambda rows, ncols:
                        shapes.append((len(rows), ncols)) or kernel(rows, ncols))
    assert len(invariant_symmetric_basis(matrix_algebra(3))) == 1
    assert shapes == [(114, 45)]


def test_m2_invariant_space_is_the_trace_tensor():
    basis = invariant_symmetric_basis(alg("M2"))
    assert len(basis) == 1
    assert basis[0].coeff == entry("M2").forms["trace"].phi.coeff


def test_symmetrized_invariant_examples():
    i1 = inst("A2", 1)
    assert is_symmetrized_invariant(i1, a2_solution(1)).passed
    assert not is_symmetrized_invariant(i1, unit_square(alg("A2"))).passed
    i0 = inst("M2", 0)
    assert is_symmetrized_invariant(i0, M2_SKEW).passed


def test_pair_residual_trivial():
    a2 = alg("A2")
    e1, e2 = aybp_residual(a2, t2_zero(2), t2_zero(2))
    assert e1.is_zero() and e2.is_zero()


def test_pair_from_mu_one_solutions():
    # r a solution for mu = 1 pairs with r - 1 (x) 1
    a2 = alg("A2")
    one = unit_square(a2)
    i1 = inst("A2", 1)
    r = rng(34)
    for t in [a2_solution(k) for k in (1, 3, 5)] + \
            [random_tensor(r, 2) for _ in range(40)]:
        e1, e2 = aybp_residual(a2, t, t.sub(one))
        assert (e1.is_zero() and e2.is_zero()) \
            == nhacybe_residual(i1, t).is_zero()


def test_pair_with_negated_flip():
    # for r + flip(r) = mu (1 (x) 1), pair validity matches the equation
    r = rng(35)
    for name in ("A2", "B1"):
        a = alg(name)
        for mu in (1, -1, 2):
            i = YbeInstance(a, mu)
            for _ in range(25):
                t = random_unit_symmetrizer(r, i)
                e1, e2 = aybp_residual(a, t, t.flip().scale(-1))
                assert (e1.is_zero() and e2.is_zero()) \
                    == nhacybe_residual(i, t).is_zero()


def test_grid_a2():
    i1 = inst("A2", 1)
    sols = grid_enumerate(i1, (0, 1))
    assert len(sols) == 10
    nonzero = [s for s in sols if not s.is_zero()]
    assert len(nonzero) == 9
    coeffs = {s.coeff for s in nonzero}
    expected = {f.tensor(1).coeff for f in entry("A2").families}
    expected.add(unit_square(alg("A2")).coeff)
    assert coeffs == expected


def test_grid_scales_with_mu():
    i2 = inst("A2", Fraction(1, 2))
    sols = grid_enumerate(i2, (0, Fraction(1, 2)))
    assert len(sols) == 10


@pytest.mark.parametrize("name", ["B3", "B5", "A1"])
def test_grid_only_unit_square(name):
    i1 = inst(name, 1)
    nonzero = [s for s in grid_enumerate(i1, (0, 1)) if not s.is_zero()]
    assert [s.coeff for s in nonzero] == [unit_square(alg(name)).coeff]
    assert not is_symmetrized_invariant(i1, nonzero[0]).passed


def test_grid_b1_counts():
    i1 = inst("B1", 1)
    sols = grid_enumerate(i1, (0, 1))
    nonzero = {s.coeff for s in sols if not s.is_zero()}
    assert len(nonzero) == 73  # the full classified nonzero count
    stored = {f.tensor(1).coeff for f in entry("B1").families}
    assert stored <= nonzero
    invariant = {c for c in nonzero
                 if is_symmetrized_invariant(i1, Tensor2(3, c)).passed}
    assert invariant == stored


def _strictly_increasing(sols):
    keys = [tuple(c for row in t.coeff for c in row) for t in sols]
    return all(a < b for a, b in zip(keys, keys[1:]))


def test_grid_deterministic():
    # unsorted and duplicated values give the same list, in strictly
    # increasing row-major lexicographic order
    for name, mu in (("A2", 1), ("B1", 1), ("B2", Fraction(-1, 2))):
        i = inst(name, mu)
        sols = grid_enumerate(i, (0, mu))
        assert grid_enumerate(i, (mu, 0, mu, Fraction(0), 0)) == sols
        assert _strictly_increasing(sols)


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "M2"])
@pytest.mark.parametrize("mu", [1, 2, Fraction(-1, 2)])
def test_grid_matches_brute_force(name, mu):
    i = inst(name, mu)
    assert grid_enumerate(i, (0, mu)) == brute_force_grid(i, (0, mu))


@pytest.mark.parametrize("name", ["A1", "A2"])
@pytest.mark.parametrize("mu", [0, 1, -2])
def test_grid_matches_brute_force_wide(name, mu):
    i = inst(name, mu)
    assert grid_enumerate(i, (-1, 0, 1)) == brute_force_grid(i, (-1, 0, 1))


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["A1", "A2"]), mu=_SMALL,
       values=st.lists(_SMALL, min_size=2, max_size=3))
def test_grid_matches_brute_force_property(name, mu, values):
    i = inst(name, mu)
    assert grid_enumerate(i, values) == brute_force_grid(i, values)


def test_grid_m2_solutions_solve_the_slotwise_equation():
    # too slow to brute force here: check count, order and each solution
    i = inst("M2", 1)
    sols = grid_enumerate(i, (0, 1))
    assert len(sols) == 52
    assert _strictly_increasing(sols)
    assert all(slotwise_residual(i, t).is_zero() for t in sols)


def test_grid_m2_wide():
    # 3^16 grid points, out of reach for exhaustive enumeration
    sols = grid_enumerate(inst("M2", 1), (-1, 0, 1))
    assert len(sols) == 218
    assert _strictly_increasing(sols)


def test_grid_builds_its_solutions_without_coercing(monkeypatch):
    # Each solution is built from the exact grid values, Fraction(2, 2)
    # already the int 1, with no second coercion of its entries.
    i = inst("A2", Fraction(-1, 2))
    values = (0, Fraction(-1, 2), Fraction(2, 2))
    want = brute_force_grid(i, values)
    built = []
    monkeypatch.setattr(Tensor2, "__post_init__", built.append)
    got = grid_enumerate(i, values)
    monkeypatch.undo()
    assert built == [] and len(got) > 1
    assert [typed(t.coeff) for t in got] == [typed(t.coeff) for t in want]


def test_grid_budget():
    with pytest.raises(BudgetExceeded):
        grid_enumerate(inst("B1", 1), (0, 1, 2), budget=100)


@pytest.mark.parametrize("n, values", [(1, (0, 1, 2)), (2, (0, 1))])
def test_grid_budget_boundary(n, values):
    # On a zero product the residual vanishes at mu = 0, so nothing is pruned
    # and every value is tried at every position: k + k**2 + ... + k**(n*n)
    # nodes.  A search of exactly that many nodes fits its budget.
    i = YbeInstance(_zero_algebra(n), 0)
    k = len(values)
    nodes = sum(k ** d for d in range(1, n * n + 1))
    assert len(grid_enumerate(i, values, budget=nodes)) == k ** (n * n)
    with pytest.raises(BudgetExceeded):
        grid_enumerate(i, values, budget=nodes - 1)
