"""The kernels run over the polynomials of ybekit.poly: substitution into the
symbolic result equals the numeric result, the search checks compiled from
it equal the hand-expanded reference form, and the integer-scaled search
commutes with scaling the grid."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybekit.ybe as ybe_module
from ybekit import (
    LinearMap,
    YbeInstance,
    adjoint_bimodule,
    grid_enumerate,
    rota_baxter_residual,
)
from ybekit.algebras import matrix_algebra
from ybekit.linalg import _values
from ybekit.operators import _operator_defect
from ybekit.poly import Poly, variables
from ybekit.ybe import _residual_num, _search_checks

from helpers import ALL_NAMES, alg, evaluate, inst, reference_residual_form

SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _algebra(name):
    return matrix_algebra(3) if name == "M3" else alg(name)


def test_poly_ring_operations():
    x, y = variables(1)[0][0], Poly({(1,): 2})
    assert x - x == Poly() and not x - x
    assert 0 - x == x * -1 == Poly({(0,): -1})
    assert 3 + x - 3 == x and (3 + x) * 0 == Poly()
    assert (x + 1) * (y - x) == Poly({(0, 1): 2, (0, 0): -1, (1,): 2, (0,): -1})
    assert Fraction(1, 2) * y == Poly({(1,): 1})
    assert variables(2)[1][0] == Poly({(2,): 1})


@pytest.mark.parametrize("name", ALL_NAMES + ("M3",))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_residual_kernel_commutes_with_substitution(name, data):
    a = _algebra(name)
    n = a.dim
    mu = data.draw(SCALARS)
    x = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    r = tuple(tuple(x[i * n:(i + 1) * n]) for i in range(n))
    for opposite in (False, True):
        symbolic = _values(*_residual_num(a, mu, variables(n), opposite))
        assert [evaluate(f, x) for f in symbolic] == _values(*_residual_num(a, mu, r, opposite))


@pytest.mark.parametrize("name", ("A2", "B1", "M2"))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_operator_kernel_commutes_with_substitution(name, data):
    # (P, P, P + lam I) on the adjoint bimodule is the Rota-Baxter identity;
    # the kernel takes maps by columns, so variable i * n + k is P[k][i].
    a = alg(name)
    n = a.dim
    lam = data.draw(SCALARS)
    flat = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    p = tuple(tuple(flat[k * n + i] for k in range(n)) for i in range(n))
    cols = variables(n)
    shifted = tuple(tuple(x + lam if k == i else x for k, x in enumerate(col))
                    for i, col in enumerate(cols))
    table = _operator_defect(a, adjoint_bimodule(a), cols, cols, shifted)
    got = tuple(tuple(tuple(evaluate(f, flat) for f in v) for v in row) for row in table)
    assert got == rota_baxter_residual(a, LinearMap(p), lam)


@pytest.mark.parametrize("mu", (0, 1, Fraction(-1, 2), Fraction(-2, 3)),
                         ids=("0", "1", "-1/2", "-2/3"))
@pytest.mark.parametrize("name", ALL_NAMES + ("M3",))
def test_search_checks_match_reference_form(name, mu):
    # The checks are the integer numerators of the reference form over the
    # residual's common denominator.
    a = _algebra(name)
    den = _residual_num(a, mu, variables(a.dim))[1]
    want = [[] for _ in range(a.dim ** 2)]
    for _, quad, lin in reference_residual_form(YbeInstance(a, mu)):
        want[max([v for _, _, v in quad] + [u for _, u in lin])].append(
            (tuple((den * c, u, v) for c, u, v in quad), tuple((den * c, u) for c, u in lin)))
    checks = _search_checks(a, mu)
    assert checks == want
    assert all(type(t[0]) is int for level in checks for quad, lin in level for t in quad + lin)


@pytest.mark.parametrize("name", ALL_NAMES + ("M3",))
def test_search_checks_are_integer_at_integer_mu(name):
    checks = _search_checks(_algebra(name), -3)
    assert all(type(t[0]) is int for level in checks for quad, lin in level
               for t in quad + lin)


def _scaled(sols, c):
    return [t.scale(c) for t in sols]


@pytest.mark.parametrize("name", ("A1", "A2", "B1"))
@pytest.mark.parametrize("mu, values", [
    (1, (0, 1)),
    (Fraction(-1, 2), (0, Fraction(-1, 2))),
    (Fraction(1, 6), (Fraction(-1, 3), 0, Fraction(1, 2))),
    (0, (-1, 0, 1)),
], ids=("1", "-1/2", "1/6-mixed", "0-wide"))
@pytest.mark.parametrize("c", (2, Fraction(1, 3), Fraction(5, 7)), ids=("2", "1/3", "5/7"))
def test_grid_commutes_with_scaling(name, mu, values, c):
    # R_{c mu}(c r) = c**2 R_mu(r), so the solutions scale with the grid
    got = grid_enumerate(inst(name, c * mu), [c * v for v in values])
    assert got == _scaled(grid_enumerate(inst(name, mu), values), c)


def test_grid_searches_over_integers(monkeypatch):
    # grid {0, -1/2, 1/3} at mu = -1/2: the lcm 6 turns mu into -3
    seen = []

    def spy(a, mu):
        seen.append(mu)
        return _search_checks(a, mu)

    monkeypatch.setattr(ybe_module, "_search_checks", spy)
    got = grid_enumerate(inst("B1", Fraction(-1, 2)), (0, Fraction(-1, 2), Fraction(1, 3)))
    assert seen == [-3] and type(seen[0]) is int
    assert got == _scaled(grid_enumerate(inst("B1", -3), (0, -3, 2)), Fraction(1, 6))
