"""The construction hypotheses: one symmetrizer relation and one witness
rule, compared with the hypotheses as each construction wrote them out
before (`reference_*` in helpers)."""

import traceback
from collections import Counter
from fractions import Fraction

import pytest

from ybekit import (
    DimensionMismatch,
    LinearMap,
    PreconditionViolated,
    Tensor2,
    WeightOp,
    YbeInstance,
    adjoint_bimodule,
    check_balanced_hom,
    dual_operator_suite,
    dual_regular_bimodule,
    invariant_dual_product,
    invariant_symmetric_basis,
    nhacybe_residual,
    o_operator_residual,
    rb_bridge_suite,
    rb_from_solution,
    rota_baxter_residual,
    semidirect_solutions,
    sharp,
    solutions_from_rb,
    t2_zero,
)
from ybekit import constructions, io_json
from ybekit.algebras import Bimodule, make_algebra
from ybekit.linalg import identity, scalar_str
from ybekit.operators import _defect_witness, _o_operator, _rota_baxter
from ybekit.tensors import outer

from helpers import (
    ALL_NAMES,
    M2_SKEW,
    alg,
    entry,
    outcome,
    reference_dual_operator_suite,
    reference_invariant_dual_product,
    reference_rb_bridge_suite,
    reference_rb_from_solution,
    reference_residual_witness,
    reference_semidirect_solutions,
    reference_solutions_from_rb,
    rng,
    slotwise_residual,
    typed_tree,
    zero_map,
)

ENTRIES = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))
MUS = (0, 1, Fraction(-1, 2), 2)
LAMS = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3))


def _matrix(r, rows, cols):
    return tuple(tuple(r.choice(ENTRIES) for _ in range(cols)) for _ in range(rows))


def _symmetric(r, n):
    m = [list(row) for row in _matrix(r, n, n)]
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i]
    return Tensor2(n, m)


def _invariant(r, a):
    """A random symmetric invariant tensor with Fraction coefficients."""
    out = t2_zero(a.dim)
    for b in invariant_symmetric_basis(a):
        out = out.add(b.scale(r.choice(ENTRIES)))
    return out


def _unit_part(a, mu):
    return outer(a.unit, a.unit).scale(mu) if mu != 0 else t2_zero(a.dim)


def _non_unital():
    """Non-unital algebras: the zero products on a line and a plane, and
    the square-zero-cube nilpotent plane x * x = y."""
    zero = lambda n: make_algebra(n, tuple(tuple((0,) * n for _ in range(n)) for _ in range(n)))
    nil = make_algebra(2, (((0, 1), (0, 0)), ((0, 0), (0, 0))))
    return [zero(1), zero(2), nil]


def _tally(equations, f, reference, *args):
    got, want = outcome(f, *args), outcome(reference, *args)
    assert typed_tree(got) == typed_tree(want), args
    if isinstance(got[0], type) and issubclass(got[0], PreconditionViolated):
        assert io_json.dumps(got[2]), args  # every witness is printable JSON
        equations[str(got[1])] += 1
    elif isinstance(got[0], type):
        equations[got[0].__name__] += 1
    else:
        equations["ok"] += 1


def _from_rb_inputs():
    r = rng(161)
    for name in ALL_NAMES:
        e = entry(name)
        a, n = e.algebra, e.algebra.dim
        for fam in e.families:
            if fam.form is not None:
                for mu in (1, Fraction(-1, 2)):
                    yield a, e.forms[fam.form].phi, fam.q_map(mu), fam.weight_sign * mu, mu
        for _ in range(6):
            s = _invariant(r, a) if r.random() < 0.8 else _symmetric(r, n)
            lam, mu = r.choice(LAMS), r.choice(MUS)
            for p in (zero_map(n), LinearMap(tuple(tuple(-lam * x for x in row)
                                                   for row in identity(n))),
                      LinearMap(_matrix(r, n, n))):
                yield a, s, p, lam, mu
    for a in _non_unital():
        for lam in LAMS:
            yield a, _symmetric(r, a.dim), LinearMap(_matrix(r, a.dim, a.dim)), lam, 0
            yield a, _symmetric(r, a.dim), zero_map(a.dim), lam, r.choice(MUS)
    a2 = alg("A2")
    yield a2, t2_zero(3), zero_map(2), 1, 1
    yield a2, entry("A2").forms["B1"].phi, zero_map(3), 1, 1


def test_solutions_from_rb_matches_the_written_out_hypotheses():
    equations = Counter()
    for args in _from_rb_inputs():
        _tally(equations, solutions_from_rb, reference_solutions_from_rb, *args)
    for eq in ("ok", "operator-compatibility", "rota-baxter", "NotInvariant", "NotUnital",
               "DimensionMismatch"):
        assert equations[eq] >= 2, equations


def _rb_from_solution_inputs():
    r = rng(162)
    for name in ALL_NAMES:
        e = entry(name)
        a, n = e.algebra, e.algebra.dim
        for fam in e.families:
            if fam.form is not None:
                for mu in (1, Fraction(-1, 2)):
                    yield a, e.forms[fam.form].phi, fam.tensor(mu), fam.weight_sign * mu, mu
        for _, f in sorted(e.forms.items()):
            for _ in range(4):
                lam, mu = r.choice(LAMS), r.choice(MUS)
                skew = [list(row) for row in _matrix(r, n, n)]
                skew = Tensor2(n, [[skew[i][j] - skew[j][i] for j in range(n)] for i in range(n)])
                # half of -lam s + mu (1 (x) 1) plus a skew part: the relation holds
                half = f.phi.scale(-lam).add(_unit_part(a, mu)).scale(Fraction(1, 2))
                yield a, f.phi, half.add(skew), lam, mu
                yield a, f.phi, Tensor2(n, _matrix(r, n, n)), lam, mu
        yield a, _invariant(r, a), Tensor2(n, _matrix(r, n, n)), 1, 1
    for a in _non_unital():
        s = Tensor2(a.dim, identity(a.dim))
        for lam in LAMS:
            yield a, s, Tensor2(a.dim, _matrix(r, a.dim, a.dim)), lam, 0
            yield a, s, Tensor2(a.dim, _matrix(r, a.dim, a.dim)), lam, 1
    a2, phi = alg("A2"), entry("A2").forms["B1"].phi
    yield a2, phi, t2_zero(3), 1, 1
    yield a2, phi, t2_zero(3), 1, 0


def test_rb_from_solution_matches_the_written_out_hypotheses():
    equations = Counter()
    for args in _rb_from_solution_inputs():
        _tally(equations, rb_from_solution, reference_rb_from_solution, *args)
    for eq in ("ok", "symmetrizer-relation", "tensor-equation", "NotUnital",
               "DimensionMismatch"):
        assert equations[eq] >= 2, equations


def _semidirect_inputs():
    r = rng(163)
    for name in ALL_NAMES:
        e = entry(name)
        a, n = e.algebra, e.algebra.dim
        betas = [zero_map(n), LinearMap(identity(n)), LinearMap(_matrix(r, n, n))]
        betas += [LinearMap(sharp(f.phi).matrix) for _, f in sorted(e.forms.items())]
        alphas = [zero_map(n), LinearMap(_matrix(r, n, n))]
        alphas += [sharp(M2_SKEW)] if name == "M2" else []
        for v in (adjoint_bimodule(a), dual_regular_bimodule(a)):
            for alpha in alphas:
                for beta in betas:
                    yield a, v, alpha, beta, r.choice(LAMS), r.choice(MUS)
        yield a, adjoint_bimodule(a), zero_map(n, n + 1), zero_map(n), 1, 0
    for a in _non_unital():
        n = a.dim
        for mu in (0, 1):
            yield a, adjoint_bimodule(a), zero_map(n), LinearMap(_matrix(r, n, n)), 1, mu
            yield a, adjoint_bimodule(a), zero_map(n), zero_map(n), Fraction(1, 2), mu


def test_semidirect_solutions_match_the_written_out_hypotheses():
    equations = Counter()
    for args in _semidirect_inputs():
        _tally(equations, semidirect_solutions, reference_semidirect_solutions, *args)
    for eq in ("ok", "weight-zero-operator", "balanced-homomorphism", "unit-compatibility",
               "NotUnital", "DimensionMismatch"):
        assert equations[eq] >= 1, equations


def _dual_suite_inputs():
    r = rng(164)
    for name in ALL_NAMES:
        e = entry(name)
        a, n = e.algebra, e.algebra.dim
        for _, f in sorted(e.forms.items()):
            b = invariant_dual_product(a, f.phi)
            for _ in range(4):
                mu = r.choice(MUS)
                skew = [list(row) for row in _matrix(r, n, n)]
                half = f.phi.add(_unit_part(a, mu)).scale(Fraction(1, 2))
                p = [[half.coeff[i][j] + skew[i][j] - skew[j][i] for j in range(n)]
                     for i in range(n)]
                yield a, b, LinearMap(p), mu
                yield a, b, LinearMap(_matrix(r, n, n)), mu


def test_dual_operator_suite_matches_the_written_out_hypotheses():
    equations = Counter()
    for args in _dual_suite_inputs():
        _tally(equations, dual_operator_suite, reference_dual_operator_suite, *args)
    for eq in ("ok", "symmetrizer-relation"):
        assert equations[eq] >= 2, equations


def test_a_wrongly_shaped_map_is_a_dimension_mismatch_in_the_dual_suite():
    # The written-out relation read p[i][j] for i, j < n: a smaller p raised
    # IndexError, a larger one had its top-left block judged first.
    e = entry("A2")
    b = invariant_dual_product(e.algebra, e.forms["B1"].phi)
    for p in (LinearMap(((1,), (0,))), LinearMap(((1, 0, 0), (0, 1, 0))),
              LinearMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))):
        with pytest.raises(DimensionMismatch, match="operator shape does not match"):
            dual_operator_suite(e.algebra, b, p, 1)


def test_invariant_dual_product_matches_the_written_out_hypotheses():
    r = rng(165)
    equations = Counter()
    for name in ALL_NAMES:
        a, n = alg(name), alg(name).dim
        for s in (_invariant(r, a), _symmetric(r, n), Tensor2(n, _matrix(r, n, n)),
                  t2_zero(n + 1)):
            _tally(equations, invariant_dual_product, reference_invariant_dual_product, a, s)
    for eq in ("ok", "NotSymmetric", "NotInvariant", "DimensionMismatch"):
        assert equations[eq] >= 1, equations


def test_rb_bridge_suite_matches_the_written_out_hypotheses():
    r = rng(166)
    equations = Counter()
    for name in ALL_NAMES:
        e = entry(name)
        n = e.algebra.dim
        for fam in e.families:
            if fam.form is not None:
                f = e.forms[fam.form]
                for mu in (1, Fraction(-1, 2)):
                    _tally(equations, rb_bridge_suite, reference_rb_bridge_suite,
                           f, mu, fam.weight_sign * mu, fam.tensor(mu))
        for _, f in sorted(e.forms.items()):
            for _ in range(3):
                _tally(equations, rb_bridge_suite, reference_rb_bridge_suite,
                       f, r.choice(MUS), r.choice(LAMS), Tensor2(n, _matrix(r, n, n)))
            _tally(equations, rb_bridge_suite, reference_rb_bridge_suite,
                   f, 1, 1, t2_zero(n + 1))
    for eq in ("ok", "proportional-symmetrizer", "DimensionMismatch"):
        assert equations[eq] >= 2, equations


def _raise_site(f, *args):
    with pytest.raises(PreconditionViolated) as err:
        f(*args)
    return err.value.equation, traceback.extract_tb(err.tb)[-1].name


def test_every_symmetrizer_relation_raises_from_one_site():
    a2, phi = alg("A2"), entry("A2").forms["B1"]
    s = phi.phi
    b = invariant_dual_product(a2, s)
    v = dual_regular_bimodule(a2)
    sites = [
        _raise_site(solutions_from_rb, a2, s, zero_map(2), 1, 1),
        _raise_site(rb_from_solution, a2, s, t2_zero(2), 1, 1),
        _raise_site(semidirect_solutions, a2, v, zero_map(2), LinearMap(identity(2)), 1, 1),
        _raise_site(dual_operator_suite, a2, b, zero_map(2), 1),
        _raise_site(rb_bridge_suite, phi, 1, 1, t2_zero(2)),
    ]
    assert sites == [(eq, "_require_symmetrizer") for eq in (
        "operator-compatibility", "symmetrizer-relation", "unit-compatibility",
        "symmetrizer-relation", "proportional-symmetrizer")]


def test_a_zero_module_is_not_unit_compatible_at_nonzero_mu():
    # beta alpha^t of a zero module is the zero n x n matrix; the dense
    # product gave n empty rows, and the relation passed vacuously.
    a2 = alg("A2")
    v = Bimodule(a2, 0, ((), ()), ((), ()))
    none = LinearMap(((), ()))
    assert semidirect_solutions(a2, v, none, none, 1, 0).r1.is_zero()
    with pytest.raises(PreconditionViolated) as err:
        semidirect_solutions(a2, v, none, none, 1, 1)
    assert (err.value.equation, err.value.witness) == (
        "unit-compatibility", {"defect": [["-1", "-1"], ["-1", "-1"]]})


def test_a_semidirect_call_builds_one_semidirect_product(monkeypatch):
    calls = []
    real = constructions.semidirect_product
    monkeypatch.setattr(constructions, "semidirect_product",
                        lambda a, v: calls.append(v) or real(a, v))
    a2 = alg("A2")
    out = semidirect_solutions(a2, dual_regular_bimodule(a2), zero_map(2, domain="dual"),
                               LinearMap(identity(2)), 1, 0)
    assert len(calls) == 1 and out.algebra.dim == 4
    m2 = alg("M2")
    semidirect_solutions(m2, dual_regular_bimodule(m2), sharp(M2_SKEW),
                         LinearMap(identity(4)), 1, 0)
    assert len(calls) == 2


def test_balanced_hom_on_a_zero_dimensional_algebra():
    # every identity is vacuous; the balance loop used to index an empty
    # tuple of columns
    a0 = make_algebra(0, (), unit=None)
    v = Bimodule(a0, 2, (), ())
    assert check_balanced_hom(a0, v, LinearMap(())).passed
    out = semidirect_solutions(a0, v, LinearMap(()), LinearMap(()), 1, 0)
    assert out.algebra.dim == 2 and out.r1.is_zero() and out.r2.is_zero()


def test_a_module_the_unit_does_not_fix_is_refused_at_nonzero_mu():
    # the zero algebra is unital, with unit 0, which acts as 0 on a nonzero
    # module; every other hypothesis is vacuous
    a0 = make_algebra(0, (), unit=())
    v = Bimodule(a0, 1, (), ())
    with pytest.raises(PreconditionViolated) as err:
        semidirect_solutions(a0, v, LinearMap(()), LinearMap(()), 1, 1)
    assert (err.value.equation, err.value.witness) == ("unital-module", None)


def test_kernel_witnesses_match_the_first_nonzero_entry_of_the_table():
    r = rng(167)
    seen, residual_seen = Counter(), Counter()
    for name in ALL_NAMES:
        a, n = alg(name), alg(name).dim
        for v in (adjoint_bimodule(a), dual_regular_bimodule(a)):
            for _ in range(3):
                alpha = LinearMap(_matrix(r, n, n))
                got = _defect_witness(*_o_operator(a, v, alpha, WeightOp.zero()))
                assert got == reference_residual_witness(
                    o_operator_residual(a, v, alpha, WeightOp.zero()))
                seen[got is None] += 1
        for _ in range(3):
            p, lam = LinearMap(_matrix(r, n, n)), r.choice(LAMS)
            got = _defect_witness(*_rota_baxter(a, p, lam))
            assert got == reference_residual_witness(rota_baxter_residual(a, p, lam))
            seen[got is None] += 1
        for mu in MUS:
            if mu == 0 or a.is_unital:
                i = YbeInstance(a, mu)
                for t in (t2_zero(n), Tensor2(n, _matrix(r, n, n))):
                    # the witness of rb_from_solution's tensor-equation hypothesis
                    got = nhacybe_residual(i, t).first_nonzero()
                    want = slotwise_residual(i, t)
                    assert typed_tree(got) == typed_tree(want.first_nonzero())
                    ref = reference_residual_witness(want.coeff)
                    if got is None:
                        assert ref is None
                    else:
                        p, q, s, x = got
                        assert ref["pair"] == [p, q] and ref["defect"][s] == scalar_str(x)
                        assert set(ref["defect"][:s]) <= {"0"}
                    residual_seen[got is None] += 1
    p = LinearMap(((0, 0), (0, 1)))
    assert _defect_witness(*_rota_baxter(alg("A2"), p, 0)) == {"pair": [1, 1], "defect": ["0", "-1"]}
    assert seen[False] >= 20
    assert residual_seen[False] >= 20 and residual_seen[True] >= 8
