"""The integer-numerator kernels against the slow references in helpers, on
rational tensors and maps, fractional mu and weights, fractional structure
constants and unit (rebased algebras), and polynomial entries over those.
Values are compared exactly, and so are types: every entry a public
function returns is an int where it is integral and a Fraction otherwise."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybekit.ybe as ybe_module
from ybekit import (
    LinearMap,
    Tensor2,
    WeightOp,
    YbeInstance,
    adjoint_bimodule,
    aybp_residual,
    dual_regular_bimodule,
    frobenius_from_form,
    frobenius_suite,
    grid_enumerate,
    is_solution,
    nhacybe_residual,
    o_operator_residual,
    operator_form_suite,
    opposite_residual,
    rb_system_residual,
    rota_baxter_residual,
)
from ybekit.cli import run
from ybekit.io_json import encode_algebra, encode_tensor2
from ybekit.linalg import _values, scalar_str
from ybekit.operators import _defect_num, _operator_defect
from ybekit.poly import Poly, variables
from ybekit.ybe import _residual_num

from helpers import (
    BASES,
    brute_force_grid,
    entry,
    evaluate,
    inst,
    rebased_entry,
    reference_frobenius_suite,
    reference_o_operator_residual,
    reference_operator_form_suite,
    reference_rb_system_residual,
    reference_rota_baxter_residual,
    slotwise_opposite_residual,
    slotwise_pair_residuals,
    slotwise_residual,
)

SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _canonical(x) -> bool:
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def _entries(t):
    """The entries of a Tensor3, or of a residual table, in order."""
    if hasattr(t, "coeff"):
        t = t.coeff
    return [x for plane in t for row in plane for x in row]


def _matrix(data, n, m):
    flat = data.draw(st.lists(SCALARS, min_size=n * m, max_size=n * m))
    return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))


def test_rebased_algebras_have_fractional_constants_and_unit():
    for name in BASES:
        a = rebased_entry(name)[0]
        assert any(type(c) is Fraction for row in a.sc for v in row for c in v)
        assert any(type(c) is Fraction for c in a.unit)


# The slotwise references are slow on the dense constants of rebased M2.
SMALL = ("A2", "B1")


@pytest.mark.parametrize("name", SMALL)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_residuals_match_slotwise_on_rational_input(name, data):
    a = rebased_entry(name)[0] if data.draw(st.booleans()) else entry(name).algebra
    n = a.dim
    i = YbeInstance(a, data.draw(SCALARS))
    r, s = Tensor2(n, _matrix(data, n, n)), Tensor2(n, _matrix(data, n, n))
    want = slotwise_residual(i, r)
    pairs = [(nhacybe_residual(i, r), want),
             (opposite_residual(i, r), slotwise_opposite_residual(i, r))]
    pairs += list(zip(aybp_residual(a, r, s), slotwise_pair_residuals(a, r, s)))
    for got, ref in pairs:
        assert [(type(x), x) for x in _entries(got)] == [(type(x), x) for x in _entries(ref)]
    assert is_solution(i, r) == want.is_zero()


@pytest.mark.parametrize("name", tuple(BASES))
@pytest.mark.parametrize("mu", (1, 2, Fraction(-1, 2), Fraction(2, 3)), ids=("1", "2", "-1/2", "2/3"))
def test_carried_solutions_still_solve_after_a_rational_change_of_basis(name, mu):
    a, carry, families, _ = rebased_entry(name)
    i = YbeInstance(a, mu)
    for tensor in families:
        r = Tensor2(a.dim, carry(tensor(mu).coeff))
        assert is_solution(i, r)
        assert nhacybe_residual(i, r).is_zero()
        bumped = Tensor2(a.dim, tuple(tuple(x + Fraction(1, 3) * (k == j == 0) for j, x in enumerate(row))
                                      for k, row in enumerate(r.coeff)))
        assert not is_solution(i, bumped)


@pytest.mark.parametrize("name", ("B1", "M2"))
@pytest.mark.parametrize("opposite", (False, True), ids=("plain", "opposite"))
def test_ybe_check_reports_the_first_nonzero_residual_entry(name, opposite, tmp_path, capsys):
    a, carry, families, _ = rebased_entry(name)
    n, mu = a.dim, Fraction(-1, 2)
    rng = random.Random(7)
    tensors = [Tensor2(n, carry(tensor(mu).coeff)) for tensor in families]
    tensors += [Tensor2(n, tuple(tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                                       for _ in range(n)) for _ in range(n))) for _ in range(6)]
    algebra = tmp_path / "a.json"
    algebra.write_text(json.dumps(encode_algebra(a)), encoding="utf-8")
    # The values of both residuals are checked against the slotwise references above.
    residual = opposite_residual if opposite else nhacybe_residual
    for k, r in enumerate(tensors):
        path = tmp_path / f"r{k}.json"
        path.write_text(json.dumps(encode_tensor2(r)), encoding="utf-8")
        argv = ["ybe", "check", "--algebra", str(algebra), "--r", str(path), "--mu", "-1/2"]
        code = run(argv + ["--opposite"] * opposite)
        report = json.loads(capsys.readouterr().out)
        first = residual(YbeInstance(a, mu), r).first_nonzero()
        assert code == (first is not None) and report["passed"] is (first is None)
        assert report.get("witness") == (None if first is None else
                                         {"slot": list(first[:3]), "value": scalar_str(first[3])})


# Fraction(2, 1) is an integer that was never reduced to an int.
UNREDUCED = ((1, 2), (Fraction(2, 1), 0))
REDUCED = ((1, 2), (2, 0))


@pytest.mark.parametrize("rebase", (False, True), ids=("integer", "rebased"))
@pytest.mark.parametrize("opposite", (False, True), ids=("plain", "opposite"))
def test_residual_numerators_of_integral_fractions_are_ints(rebase, opposite):
    a = rebased_entry("A2")[0] if rebase else entry("A2").algebra
    for mu in (0, 1):
        num, den = _residual_num(a, mu, UNREDUCED, opposite)
        assert all(type(x) is int for x in num)
        assert (num, den) == _residual_num(a, mu, REDUCED, opposite)
        values = _values(*_residual_num(a, mu, UNREDUCED, opposite))
        assert all(_canonical(v) for v in values)


@pytest.mark.parametrize("rebase", (False, True), ids=("integer", "rebased"))
def test_defect_numerators_of_integral_fractions_are_ints(rebase):
    a = rebased_entry("A2")[0] if rebase else entry("A2").algebra
    v = adjoint_bimodule(a)
    for maps in ((UNREDUCED, REDUCED, REDUCED), (REDUCED, UNREDUCED, UNREDUCED)):
        num, den = _defect_num(a, v, *maps, eps=(Fraction(3, 1), 0))
        assert all(type(x) is int for x in num)
        assert (num, den) == _defect_num(a, v, REDUCED, REDUCED, REDUCED, eps=(3, 0))


@pytest.mark.parametrize("name", SMALL)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_residual_over_polynomials_of_a_rebased_algebra(name, data):
    a = rebased_entry(name)[0]
    n = a.dim
    mu = data.draw(SCALARS)
    x = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    r = tuple(tuple(x[k * n:(k + 1) * n]) for k in range(n))
    want = slotwise_residual(YbeInstance(a, mu), Tensor2(n, r))
    for opposite in (False, True):
        symbolic = _values(*_residual_num(a, mu, variables(n), opposite))
        assert all(isinstance(f, Poly) or f == 0 for f in symbolic)
        values = _values(*_residual_num(a, mu, r, opposite))
        assert [evaluate(f, x) for f in symbolic] == values
        assert all(_canonical(v) for v in values)
    assert _values(*_residual_num(a, mu, r)) == _entries(want)


@pytest.mark.parametrize("name", tuple(BASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_operator_kernel_over_polynomials_of_a_rebased_algebra(name, data):
    # (P, P, P + lam I) on the adjoint bimodule: variable i * n + k is P[k][i]
    a = rebased_entry(name)[0]
    n = a.dim
    lam = data.draw(SCALARS)
    flat = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    p = tuple(tuple(flat[k * n + i] for k in range(n)) for i in range(n))
    cols = variables(n)
    shifted = tuple(tuple(x + lam if k == i else x for k, x in enumerate(col))
                    for i, col in enumerate(cols))
    table = _operator_defect(a, adjoint_bimodule(a), cols, cols, shifted)
    got = tuple(tuple(tuple(evaluate(f, flat) for f in v) for v in row) for row in table)
    want = rota_baxter_residual(a, LinearMap(p), lam)
    assert got == want == reference_rota_baxter_residual(a, LinearMap(p), lam)


@pytest.mark.parametrize("name", tuple(BASES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_operator_identities_match_reference_on_rebased_algebras(name, data):
    a = rebased_entry(name)[0]
    n = a.dim
    p, s = LinearMap(_matrix(data, n, n)), LinearMap(_matrix(data, n, n))
    lam = data.draw(SCALARS)
    tables = [(rota_baxter_residual(a, p, lam), reference_rota_baxter_residual(a, p, lam))]
    tables += list(zip(rb_system_residual(a, p, s), reference_rb_system_residual(a, p, s)))
    for v in (adjoint_bimodule(a), dual_regular_bimodule(a)):
        weights = [WeightOp.zero(), WeightOp.right_twist(_matrix(data, n, n)),
                   WeightOp.left_twist(_matrix(data, n, n)),
                   WeightOp.scalar(lam, tuple(_matrix(data, n, n) for _ in range(n)))]
        for w in weights:
            tables.append((o_operator_residual(a, v, p, w),
                           reference_o_operator_residual(a, v, p, w)))
    for got, want in tables:
        assert got == want
        assert all(_canonical(x) for x in _entries(got))


@pytest.mark.parametrize("name", tuple(BASES))
@pytest.mark.parametrize("mu", (1, Fraction(-1, 2)), ids=("1", "-1/2"))
def test_suites_match_reference_on_rebased_algebras(name, mu):
    a, carry, families, forms = rebased_entry(name)
    n = a.dim
    i = YbeInstance(a, mu)
    tensors = [Tensor2(n, carry(t(mu).coeff)) for t in families]
    tensors += [Tensor2(n, tuple(tuple(Fraction(j - k, 3) + (j == k) for k in range(n))
                                 for j in range(n)))]
    for r in tensors:
        assert operator_form_suite(i, r).to_json() == \
            reference_operator_form_suite(i, r).to_json()
        for form in forms:
            f = frobenius_from_form(a, form)
            assert frobenius_suite(f, mu, r).to_json() == \
                reference_frobenius_suite(f, mu, r).to_json()


def test_grid_at_fractional_mu_confirms_over_integers(monkeypatch):
    kernel = ybe_module._residual_num
    confirmed = []

    def spy(a, mu, c, opposite=False):
        num, den = kernel(a, mu, c, opposite)
        if not isinstance(c[0][0], Poly):
            confirmed.append(num)
        return num, den

    monkeypatch.setattr(ybe_module, "_residual_num", spy)
    i = inst("B1", Fraction(-1, 2))
    got = grid_enumerate(i, (0, Fraction(-1, 2)))
    assert len(confirmed) == 74
    assert all(type(x) is int for num in confirmed for x in num)
    monkeypatch.undo()
    assert len(got) == 74 and got == brute_force_grid(i, (0, Fraction(-1, 2)))
