"""Operands prepared once per tensor and the dual regular bimodule read off
the structure constants: the suites against their references in
`tests/helpers.py`, which take every verdict by definition, and the module
against the dual of the adjoint one built from dense action tables."""

import json
import random
import sys
from fractions import Fraction

import pytest

import ybekit
from ybekit import (
    DimensionMismatch,
    Tensor2,
    YbeInstance,
    frobenius_from_form,
    frobenius_suite,
    invariant_operator_suite,
    matrix_algebra,
    operator_form_suite,
    trace_form,
)
from ybekit import io_json
from ybekit.algebras import dual_regular_bimodule, make_algebra
from ybekit.cli import run

from helpers import (
    ALL_NAMES,
    BASES,
    alg,
    eager_action_tables,
    entry,
    outcome,
    perfbench_workloads,
    rebased,
    rebased_entry,
    reference_dual_regular,
    reference_frobenius_suite,
    reference_invariant_operator_suite,
    reference_operator_form_suite,
)


def _check_batch(n, counts, seed):
    """The seeded (kind, tensor, mu) triples of the benchmark's `check` workload."""
    workloads = perfbench_workloads()
    return [(kind, Tensor2(n * n, coeff), Fraction(mu))
            for kind, coeff, mu in workloads.check_batch(random.Random(seed), n, counts)]


def _fraction_algebras():
    """Algebras with Fraction structure constants: the rebased catalog
    algebras and B4 on a diagonal basis."""
    b4 = alg("B4")
    diag = tuple(tuple(Fraction(1, 2 + i) if i == j else 0 for j in range(b4.dim))
                 for i in range(b4.dim))
    return [rebased_entry(name)[0] for name in BASES] + [rebased(b4, diag)]


_ALGEBRAS = {**{name: lambda name=name: alg(name) for name in ALL_NAMES},
             "M3": lambda: matrix_algebra(3), "M4": lambda: matrix_algebra(4),
             "zero": lambda: make_algebra(0, ())}
_ALGEBRAS.update({f"fraction-{i}": lambda i=i: _fraction_algebras()[i] for i in range(4)})


@pytest.mark.parametrize("name", tuple(_ALGEBRAS))
def test_dual_regular_matches_the_dual_of_the_adjoint(name):
    a = _ALGEBRAS[name]()
    left, right = eager_action_tables(a)
    assert a._left == left and a._right == right
    got, want = dual_regular_bimodule(a), reference_dual_regular(a)
    assert got.left == want.left and got.right == want.right
    assert got._actions == want._actions
    assert all(sorted(g) == sorted(w) for side, wside in zip(got._by_module, want._by_module)
               for g, w in zip(side, wside))
    assert len(got._by_module[0]) == len(want._by_module[0]) == a.dim


def _bumped(t):
    """t plus e_0 (x) e_1: a tensor near a solution that is usually not one."""
    n = t.dim
    return Tensor2(n, tuple(tuple(x + (i == 0 and j == min(1, n - 1)) for j, x in enumerate(row))
                            for i, row in enumerate(t.coeff)))


def _same_suites(inst, r, forms=()):
    """Each suite against its `reference_*_suite`, the composition of the
    per-pair oracles in helpers.py.  The `per_call_reference` in the names of
    the tests below is the snapshot they once read; their ids are kept."""
    assert outcome(operator_form_suite, inst, r) == outcome(reference_operator_form_suite, inst, r)
    assert outcome(invariant_operator_suite, inst, r) == \
        outcome(reference_invariant_operator_suite, inst, r)
    for f in forms:
        assert outcome(frobenius_suite, f, inst.mu, r) == \
            outcome(reference_frobenius_suite, f, inst.mu, r)


@pytest.mark.parametrize("mu", (1, 2, Fraction(-1, 2)), ids=("1", "2", "-1/2"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_suites_match_per_call_reference_on_catalog_families(name, mu):
    e = entry(name)
    inst = YbeInstance(e.algebra, mu)
    for fam in e.families:
        r = fam.tensor(mu)
        _same_suites(inst, r, e.forms.values())
        _same_suites(inst, _bumped(r), e.forms.values())


@pytest.mark.parametrize("n, counts", ((3, (8, 4, 3)), (4, (1, 1, 1))), ids=("M3", "M4"))
def test_suites_match_per_call_reference_on_the_check_batch(n, counts):
    a, frob = trace_form(n)
    seen = set()
    for kind, r, own_mu in _check_batch(n, counts, seed=11):
        for mu in (1, Fraction(-1, 2), own_mu):
            _same_suites(YbeInstance(a, mu), r, [frob] if n == 3 else [])
            seen.add((kind, outcome(invariant_operator_suite, YbeInstance(a, mu), r)[0]))
    # Every kind of the batch reaches the suites, and the invariant suite both
    # runs (on the symmetric-invariant kind at its own mu) and is refused.
    assert {k for k, _ in seen} == {"random", "unit", "symmetric-invariant"}
    assert {o for _, o in seen} == {"CheckReport", ybekit.PreconditionViolated}


@pytest.mark.parametrize("name", tuple(BASES))
def test_suites_match_per_call_reference_on_fraction_algebras(name):
    a, carry, families, forms = rebased_entry(name)
    for mu in (1, Fraction(-1, 2)):
        inst = YbeInstance(a, mu)
        for t in families:
            r = Tensor2(a.dim, carry(t(mu).coeff))
            _same_suites(inst, r, [frobenius_from_form(a, g) for g in forms])
            _same_suites(inst, _bumped(r))


@pytest.mark.parametrize("name", ALL_NAMES + ("zero",))
def test_suites_match_per_call_reference_at_mu_zero_and_wrong_dimension(name):
    a = _ALGEBRAS[name]()
    n = a.dim
    rnd = random.Random(n)
    tensors = [Tensor2(n, tuple(tuple(Fraction(rnd.choice((-2, -1, 0, 1, 2)), rnd.choice((1, 2)))
                                      for _ in range(n)) for _ in range(n))) for _ in range(6)]
    tensors += [Tensor2(n + 1, ((1,) * (n + 1),) * (n + 1))]
    forms = entry(name).forms.values() if name in ALL_NAMES else ()
    for r in tensors:
        _same_suites(YbeInstance(a, 0), r)
        if n:
            _same_suites(YbeInstance(a, 1), r, forms)
    assert outcome(operator_form_suite, YbeInstance(a, 0), tensors[-1])[0] is DimensionMismatch


def test_operands_are_kept_on_the_tensor():
    t = entry("B1").families[0].tensor(Fraction(-1, 2))
    c, ct, neg_c, neg_ct = t._operands
    assert t._operands[0] is c
    d = c[0]
    assert [[Fraction(x, d) for x in row] for row in c[1]] == [list(row) for row in t.coeff]
    assert ct[1] == tuple(zip(*c[1])) and neg_c[1] == tuple(tuple(-x for x in row) for row in c[1])
    assert neg_ct[1] == tuple(tuple(-x for x in row) for row in ct[1])
    assert all(type(x) is int for op in t._operands for row in op[1] for x in row)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_op_suite_clears_r_once(tmp_path, monkeypatch, capsys):
    # Counting guard.  Each operator identity used to clear its own maps:
    # sharp(r), tsharp(r), their negatives and the twisted columns, 24 times
    # on this command.  Now the identities of both suites at both mu read one
    # set of operands, C and C^t cleared together once; handing an operand
    # to `_cleared` again returns it as it is.  The residual kernel stays a
    # plain-matrix caller that clears its input on each verdict; its calls
    # are not counted.  `linalg._cleared` is patched in every module that
    # binds it, `linalg` itself included, where `_operands` reads it.
    (_, r, mu), = [t for t in _check_batch(3, (0, 0, 1), seed=3)]
    assert mu == 1 and any(type(x) is Fraction and x.denominator == 2
                           for row in r.coeff for x in row)
    n = r.dim
    cleared, residuals, inside = [], [], []
    clear, kernel = ybekit.linalg._cleared, ybekit.ybe._residual_blocks

    def counted_clear(m):
        if type(m) is not ybekit.linalg._Operand and len(m) >= n and not inside:
            cleared.append(m)
        return clear(m)

    def counted_kernel(*args, **kwargs):
        residuals.append(args[2])
        inside.append(True)
        try:
            return kernel(*args, **kwargs)
        finally:
            inside.pop()

    for name, module in list(sys.modules.items()):
        if name.startswith("ybekit"):
            if getattr(module, "_cleared", None) is clear:
                monkeypatch.setattr(module, "_cleared", counted_clear)
            if getattr(module, "_residual_blocks", None) is kernel:
                monkeypatch.setattr(module, "_residual_blocks", counted_kernel)
    apath = _write(tmp_path, "m3.json", io_json.encode_algebra(matrix_algebra(3)))
    rpath = _write(tmp_path, "r.json", io_json.encode_tensor2(r))
    assert run(["op", "suite", "--algebra", apath, "--r", rpath,
                "--mu", "1", "--mu", "-1/2"]) == 0
    monkeypatch.undo()
    subs = json.loads(capsys.readouterr().out)["details"]["subchecks"]
    assert [s["check"] for s in subs] == ["operator-form-suite", "invariant-operator-suite",
                                          "operator-form-suite"]
    assert len(residuals) == 2
    assert cleared == [(*r.coeff, *zip(*r.coeff))]
