"""The verdicts against the oracles, and exact data built once.

Every suite and the catalog's family check read their verdicts off integer
numerators (`ybe.is_solution`, `operators._holds`) and form no defect table
or residual tensor.  Each suite is compared, on its whole `to_json()` and
on the preconditions it refuses, and the family check on its (check,
passed) pairs, with its reference in `helpers`, which takes every verdict
by definition: the slotwise residual, the per-pair operator identities and
the dense invariance defect.  Decoded and derived objects
are built from exact data without a second coercion; the public
constructors and the CLI still refuse what they refused before."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybekit
import ybekit.catalog as catalog_module
from ybekit import (
    Algebra,
    Bimodule,
    BimoduleAlgebra,
    DimensionMismatch,
    LinearMap,
    PreconditionViolated,
    Tensor2,
    Tensor3,
    YbeInstance,
    adjoint_bimodule,
    dual_operator_suite,
    dual_regular_bimodule,
    extended_symmetrizer,
    frobenius_from_form,
    frobenius_suite,
    invariant_dual_product,
    invariant_operator_suite,
    is_invariant,
    matrix_algebra,
    operator_form_suite,
    proportional_lambda,
    rb_bridge_suite,
    residual_is_zero,
    sharp,
    trace_form,
)
from ybekit import io_json
from ybekit.algebras import make_algebra
from ybekit.cli import run
from ybekit.operators import _holds

from helpers import (
    ALL_NAMES,
    BASES,
    entry,
    rebased_entry,
    reference_defect_table,
    reference_dual_operator_suite,
    reference_family_checks,
    reference_frobenius_suite,
    reference_invariant_operator_suite,
    reference_operator_form_suite,
    reference_rb_bridge_suite,
)

MUS = (1, 2, Fraction(-1, 2))


def _outcome(suite, *args):
    """The suite's report as JSON, or the precondition it refuses with its witness."""
    try:
        return suite(*args).to_json()
    except PreconditionViolated as exc:
        return ("precondition", exc.equation, exc.witness)


def _same(suite, reference, *args):
    got = _outcome(suite, *args)
    assert got == _outcome(reference, *args)
    return got


def _compare_suites(a, r, mu, frobs=()):
    """Every suite on (a, r, mu), and the Frobenius suites for each structure
    in frobs, against its `reference_*` composition of the per-pair oracles;
    returns the operator-form suite's report.  The `value_path` in the names
    of the tests below is the snapshot they once read; their ids are kept."""
    i = YbeInstance(a, mu)
    got = _same(operator_form_suite, reference_operator_form_suite, i, r)
    _same(invariant_operator_suite, reference_invariant_operator_suite, i, r)
    sbar = extended_symmetrizer(i, r)
    if is_invariant(a, sbar).passed:
        b = invariant_dual_product(a, sbar)
        _same(dual_operator_suite, reference_dual_operator_suite, a, b, sharp(r), mu)
    for f in frobs:
        _same(frobenius_suite, reference_frobenius_suite, f, mu, r)
        lam = proportional_lambda(f, i, r)
        _same(rb_bridge_suite, reference_rb_bridge_suite, f, mu, 1 if lam is None else lam, r)
    return got


@pytest.mark.parametrize("mu", MUS, ids=("1", "2", "-1/2"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_families_match_the_value_path(name, mu):
    e = entry(name)
    frobs = [f for f in e.forms.values()]
    for fam in e.families:
        got = catalog_module._verify_family(e, fam, mu, fam.tensor(mu), (), ())
        assert got == list(reference_family_checks(name, fam.name, mu))
        assert all(passed for _, passed in got)
        rep = _compare_suites(e.algebra, fam.tensor(mu), mu, frobs)
        assert rep["passed"] and rep["details"]["all_pass"]


@pytest.mark.parametrize("mu", MUS, ids=("1", "2", "-1/2"))
@pytest.mark.parametrize("name", tuple(BASES))
def test_rebased_algebras_match_the_value_path(name, mu):
    a, carry, families, forms = rebased_entry(name)
    n = a.dim
    frobs = [frobenius_from_form(a, form) for form in forms]
    tensors = [Tensor2(n, carry(t(mu).coeff)) for t in families]
    tensors += [Tensor2(n, tuple(tuple(Fraction(j - k, 3) + (j == k) for k in range(n))
                                 for j in range(n)))]
    verdicts = [_compare_suites(a, r, mu, frobs)["details"]["all_pass"] for r in tensors]
    assert any(verdicts) and not all(verdicts)


def _dense_m3(rnd, mu):
    """Tensors on M3 at mu: mu (1 (x) 1), which solves the equation, the same
    plus a skew part, whose symmetrizer is invariant, and a dense random one."""
    a = matrix_algebra(3)
    u = a.unit
    unit = [[mu * x * y for y in u] for x in u]
    skew = [[0] * 9 for _ in range(9)]
    for i in range(9):
        for j in range(i + 1, 9):
            skew[i][j] = rnd.choice((-2, -1, 1, 2))
            skew[j][i] = -skew[i][j]
    dense = [[rnd.choice((-1, 0, 1, Fraction(1, 2))) for _ in range(9)] for _ in range(9)]
    plus = [[x + y for x, y in zip(r, s)] for r, s in zip(unit, skew)]
    return a, [Tensor2(9, unit), Tensor2(9, plus), Tensor2(9, dense)]


@pytest.mark.parametrize("mu", (1, Fraction(-1, 2)), ids=("1", "-1/2"))
def test_dense_m3_tensors_match_the_value_path(mu):
    rnd = random.Random(11)
    _, frob = trace_form(3)
    a, tensors = _dense_m3(rnd, mu)
    reports = [_compare_suites(a, r, mu, [frob]) for r in tensors]
    assert [rep["details"]["all_pass"] for rep in reports] == [True, False, False]
    assert all(rep["passed"] for rep in reports)


def _corrupted(b, entries):
    """b with 1 added to product[j][i][k], the entry the product-pairing
    check names as data [i, j, k], for each (i, j, k) in entries."""
    table = [[list(v) for v in row] for row in b.product]
    for i, j, k in entries:
        table[j][i][k] += 1
    return BimoduleAlgebra(b.bimodule, table)


def test_dual_operator_suite_names_the_first_bad_entry_in_scan_order():
    # Both entries lie off the coordinates of the unit E11 + E22 of M2, so
    # the unit pairing and the tensor read off the product stay the same.
    # Scanning (i, k, j) meets data [0, 1, 1] first; (i, j, k) would meet [0, 0, 2].
    e = entry("M2")
    b = _corrupted(invariant_dual_product(e.algebra, e.forms["trace"].phi),
                   [(0, 0, 2), (0, 1, 1)])
    p = LinearMap(((0,) * 4,) * 4, "dual")
    got = _same(dual_operator_suite, reference_dual_operator_suite, e.algebra, b, p, 1)
    assert got == ("precondition", "product-pairing", {"data": [0, 1, 1]})


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_operator_suite_refuses_corrupted_products_as_before(name):
    e = entry(name)
    a, n = e.algebra, e.algebra.dim
    rnd = random.Random(n)
    for form in e.forms.values():
        b = invariant_dual_product(a, form.phi)
        for _ in range(8):
            entries = [tuple(rnd.randrange(n) for _ in range(3))
                       for _ in range(rnd.randint(1, 3))]
            _same(dual_operator_suite, reference_dual_operator_suite, a,
                  _corrupted(b, entries), sharp(form.phi), 1)


SCALARS = st.one_of(st.integers(-2, 2),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rational_tensors_match_the_value_path(data):
    name = data.draw(st.sampled_from(("A2", "B1")))
    a, frobs = (rebased_entry(name)[0], ()) if data.draw(st.booleans()) else \
        (entry(name).algebra, list(entry(name).forms.values()))
    n = a.dim
    flat = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    r = Tensor2(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
    _compare_suites(a, r, data.draw(SCALARS), frobs)


SPARSE = st.one_of(st.just(0), st.just(0), SCALARS)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_holds_is_the_verdict_of_the_defect_table(data):
    # One nonzero defect entry anywhere must make the identity fail: the
    # one-dimensional algebra with p = id and q = s = 0 has a single entry.
    c = make_algebra(1, [[[1]]], unit=(1,))
    assert not _holds(c, adjoint_bimodule(c), ((1,),), ((0,),), ((0,),))
    name = data.draw(st.sampled_from(("A2", "B1", "M2")))
    a = rebased_entry(name)[0] if data.draw(st.booleans()) else entry(name).algebra
    v = dual_regular_bimodule(a) if data.draw(st.booleans()) else adjoint_bimodule(a)
    n = a.dim
    p, q, s = (tuple(tuple(data.draw(SPARSE) for _ in range(n)) for _ in range(n))
               for _ in range(3))
    eps = data.draw(st.one_of(st.none(), st.lists(SPARSE, min_size=n, max_size=n)))
    opposite = data.draw(st.booleans())
    table = reference_defect_table(a, v, p, q, s, eps, opposite=opposite)
    assert _holds(a, v, p, q, s, eps, opposite=opposite) == residual_is_zero(table)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return str(path)


def _m4_files(tmp_path):
    a = matrix_algebra(4)
    rnd = random.Random(5)
    r = Tensor2(16, tuple(tuple(rnd.choice((-2, -1, 0, 1, 2)) for _ in range(16))
                          for _ in range(16)))
    return (a, r, _write(tmp_path, "m4.json", io_json.encode_algebra(a)),
            _write(tmp_path, "r.json", io_json.encode_tensor2(r)))


def _literals(obj) -> set:
    if isinstance(obj, list):
        return set().union(*map(_literals, obj))
    if isinstance(obj, dict):
        return set().union(*(_literals(v) for k, v in obj.items() if k != "basis"))
    return {obj} if isinstance(obj, str) else set()


def test_m4_op_suite_forms_no_table(tmp_path, monkeypatch, capsys):
    # Counting guard: the suites read every verdict off integer numerators.
    # Dividing out every defect table and the residual, at each mu, made
    # 19,273 divisions on this command and built two Tensor3s.  Reading
    # the verdicts off numerators left the witness of the failed invariance
    # precondition at mu = -1/2 (at most 256 divisions) and the symmetrizer
    # (one division per nonzero entry, in each suite at mu = -1/2).  Now the
    # twist and the invariance test read the symmetrizer's numerators and the
    # dropped witness is never formed: nothing is divided.
    a, r, apath, rpath = _m4_files(tmp_path)
    counts = {"ratio": 0, "t3": 0, "parse": 0}
    ratio, parse = ybekit.linalg._ratio, io_json.parse_scalar

    def counted_ratio(x, d):
        counts["ratio"] += 1
        return ratio(x, d)

    def counted_parse(s):
        counts["parse"] += 1
        return parse(s)

    def counted_t3(self):
        counts["t3"] += 1

    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("ybekit")]:
        if getattr(mod, "_ratio", None) is ratio:
            monkeypatch.setattr(mod, "_ratio", counted_ratio)
    monkeypatch.setattr(io_json, "parse_scalar", counted_parse)
    monkeypatch.setattr(Tensor3, "__post_init__", counted_t3)
    argv = ["op", "suite", "--algebra", apath, "--r", rpath, "--mu", "1", "--mu", "-1/2"]
    assert run(argv) == 0
    monkeypatch.undo()
    assert counts["t3"] == 0
    docs = [json.loads(open(p, encoding="utf-8").read()) for p in (apath, rpath)]
    assert counts["parse"] <= sum(len(_literals(d)) for d in docs) + 2  # + the two --mu
    assert counts["ratio"] == 0
    subs = json.loads(capsys.readouterr().out)["details"]["subchecks"]
    assert [s["check"] for s in subs] == ["operator-form-suite"] * 2


def test_decode_parses_each_literal_once_per_document(monkeypatch):
    calls = []
    parse = io_json.parse_scalar
    monkeypatch.setattr(io_json, "parse_scalar", lambda s: calls.append(s) or parse(s))
    doc = io_json.encode_algebra(matrix_algebra(3))
    for _ in range(2):  # the memo belongs to one decode call, not to the module
        calls.clear()
        assert io_json.decode_algebra(doc) == matrix_algebra(3)
        assert sorted(calls) == ["0", "1"]
    calls.clear()
    t = io_json.decode_tensor2({"dim": 2, "coeff": [[1, "1"], ["-1/2", 1]]})
    assert sorted(calls, key=repr) == sorted([1, "1", "-1/2"], key=repr)
    assert [type(x) for row in t.coeff for x in row] == [int, int, Fraction, int]


def test_decoded_objects_equal_constructed_ones():
    for name in ALL_NAMES:
        a = entry(name).algebra
        got = io_json.decode_algebra(json.loads(io_json.dumps(io_json.encode_algebra(a))))
        assert got == a and hash(got) == hash(a)
        assert [type(x) for row in got.sc for v in row for x in v] == \
            [type(x) for row in a.sc for v in row for x in v]
    m = io_json.decode_linear_map({"matrix": [["1/2", "2/2"]], "domain": "dual"})
    assert m == LinearMap(((Fraction(1, 2), 1),), "dual") and type(m.matrix[0][1]) is int


M2_SC = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
for _a in range(2):
    for _b in range(2):
        for _c in range(2):
            M2_SC[_a * 2 + _b][_b * 2 + _c][_a * 2 + _c] = "1"
M2_DOC = {"dim": 4, "basis": None, "unit": ["1", "0", "0", "1"], "sc": M2_SC}
R_DOC = {"dim": 4, "coeff": [["1", "0", "-1/2", "2"] for _ in range(4)]}


def _zero_rows(first):
    return [[first, "0", "0", "0"]] + [["0"] * 4] * 3


# (which file is bad, its content, the error line) -- each line as the
# program printed it before exact data got its own construction path (the
# huge dim only after making a name for each of its basis vectors).
REFUSED = {
    "ragged-coeff": ("r", dict(R_DOC, coeff=[["1"] * 4, ["1"] * 3, ["1"] * 4, ["1"] * 4]),
                     "error: ragged matrix"),
    "float": ("r", dict(R_DOC, coeff=_zero_rows(1.5)), "error: scalar: expected int, got float"),
    "wrong-dim": ("r", dict(R_DOC, dim=3), "error: coeff is not 3x3"),
    "wrong-algebra-dim": ("a", dict(M2_DOC, dim=3),
                          "error: structure constants are not 3x3x3"),
    "unit-length": ("a", dict(M2_DOC, unit=["1", "0", "1"]),
                    "error: unit vector has wrong length"),
    "sc-shape": ("a", dict(M2_DOC, sc=[[v[:3] for v in row] for row in M2_SC]),
                 "error: structure constants are not 4x4x4"),
    "basis-dim": ("a", dict(M2_DOC, basis=["a", "b", "c"]),
                  "error: basis names do not match dim"),
    "huge-dim": ("a", dict(M2_DOC, dim=10**9),
                 f"error: structure constants are not {10**9}x{10**9}x{10**9}"),
    "non-object": ("a", [1, 2], "error: algebra: expected dict, got list"),
    "zero-denominator": ("r", dict(R_DOC, coeff=_zero_rows("1/0")),
                         "error: scalar '1/0' has a zero denominator"),
    "exponent": ("r", dict(R_DOC, coeff=_zero_rows("1e9")),
                 "error: scalar '1e9': no exponents; write an integer, p/q or a decimal"),
    "bool": ("r", dict(R_DOC, coeff=_zero_rows(True)), "error: scalar: expected int, got bool"),
    "list-scalar": ("a", dict(M2_DOC, unit=[["1"], "0", "0", "1"]),
                    "error: scalar: expected int, got list"),
}


@pytest.mark.parametrize("case", REFUSED)
@pytest.mark.parametrize("cmd", (["ybe", "check"], ["op", "suite"]), ids=("check", "suite"))
def test_untrusted_input_is_still_refused(case, cmd, tmp_path, capsys):
    which, doc, error = REFUSED[case]
    a = _write(tmp_path, "a.json", doc if which == "a" else M2_DOC)
    r = _write(tmp_path, "r.json", doc if which == "r" else R_DOC)
    assert run([*cmd, "--algebra", a, "--r", r, "--mu", "-1/2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == error + "\n"


@pytest.mark.parametrize("build", [
    lambda: Tensor2(2, ((1.5, 0), (0, 0))),
    lambda: Tensor2(2, ((1, 0), (0,))),
    lambda: Tensor3(1, (((0.5,),),)),
    lambda: Tensor3(2, (((0, 1), (0,)), ((0, 0), (0, 0)))),
    lambda: Algebra(1, ("e",), (((1.0,),),), None),
    lambda: Algebra(1, ("e",), (((1,),),), (1.0,)),
    lambda: Algebra(2, ("a", "b"), (((1, 0), (0,)), ((0, 0), (0, 1))), None),
    lambda: LinearMap(((0.5,),)),
    lambda: LinearMap(((1, 0), (1,))),
    lambda: Bimodule(entry("A1").algebra, 1, (((0.5,),), ((1,),)), (((1,),), ((0,),))),
    lambda: Bimodule(entry("A1").algebra, 1, (((1,), (0, 1)), ((1,),)), (((1,),), ((0,),))),
], ids=("t2-float", "t2-ragged", "t3-float", "t3-ragged", "sc-float", "unit-float",
        "sc-ragged", "map-float", "map-ragged", "module-float", "module-ragged"))
def test_public_constructors_still_refuse_floats_and_ragged_input(build):
    with pytest.raises((ValueError, DimensionMismatch)):
        build()
