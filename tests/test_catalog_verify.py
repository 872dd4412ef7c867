"""`catalog verify` searches the grid {0, 1} once per entry, checks the
algebra axioms and takes each family's verdicts once per entry and builds
each family's exact data once.

By R_mu(mu s) = mu^2 R_1(s) the grid {0, mu} at mu is the grid {0, 1} at
mu = 1 scaled by mu, reversed when mu < 0.  The scaled lists are compared
with a direct search, the whole run with a reference that searches once per
mu and takes every verdict on the oracles of `helpers`
(`helpers.reference_verify_catalog`), the work done with counts, and the
integer `induced_operators` with dense matrix products."""

import json
import random
import sys
from fractions import Fraction

import pytest

import ybekit.algebras as algebras_module
import ybekit.catalog as catalog_module
import ybekit.ybe as ybe_module
from ybekit import (
    BilinearForm,
    DimensionMismatch,
    Tensor2,
    YbeInstance,
    frobenius_from_form,
    frobenius_suite,
    grid_enumerate,
    induced_operators,
    io_json,
    is_solution,
    t2_zero,
)
from ybekit import cli
from ybekit.catalog import verify_catalog

from helpers import (
    ALL_NAMES,
    entry,
    perfbench_workloads,
    reference_induced_operators,
    reference_verify_catalog,
)

GRID_MUS = (1, 2, Fraction(-1, 2), Fraction(3, 7), -5)


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


def test_scaled_grid_is_the_direct_search(monkeypatch):
    scaled = []
    real = catalog_module._scaled_grid

    def spy(inst, base):
        sols = real(inst, base)
        scaled.append((inst, sols))
        return sols

    monkeypatch.setattr(catalog_module, "_scaled_grid", spy)
    for name in ALL_NAMES:
        verify_catalog(name, GRID_MUS)
    monkeypatch.undo()
    assert [i.mu for i, _ in scaled] == list(GRID_MUS) * len(ALL_NAMES)
    for inst, sols in scaled:
        want = grid_enumerate(inst, (0, inst.mu))
        assert [_typed(s.coeff) for s in sols] == [_typed(s.coeff) for s in want]


@pytest.mark.parametrize("mu", (2, Fraction(-1, 2)))
def test_a_base_solution_failing_at_its_mu_raises(monkeypatch, mu):
    a = entry("B3").algebra
    bad = Tensor2(3, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    assert not is_solution(YbeInstance(a, mu), bad.scale(mu))
    real = catalog_module.grid_enumerate
    monkeypatch.setattr(catalog_module, "grid_enumerate",
                        lambda inst, values: [*real(inst, values), bad])
    with pytest.raises(RuntimeError, match="disagrees with the residual kernel"):
        verify_catalog("B3", [mu])


@pytest.mark.parametrize("mus,grid", [
    ([1, 2, Fraction(-1, 2)], True),
    ([0, 1], True),
    ([Fraction(3, 7), -5], True),
    ([1, 2, Fraction(-1, 2)], False),
    *[(mus, grid) for mus in ([2, Fraction(-1, 2)], [1, 1, Fraction(-1, 2)], [-1, 1])
      for grid in (True, False)],
], ids=("1,2,-1/2", "0,1", "3/7,-5", "no-grid", "2,-1/2", "2,-1/2-no-grid",
        "1,1,-1/2", "1,1,-1/2-no-grid", "-1,1", "-1,1-no-grid"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_verify_matches_the_search_per_mu(name, mus, grid):
    # Each verdict read off another is taken here against a reference that
    # takes every verdict at each mu: [2, -1/2] reads the base verdicts with
    # no mu = 1 among the mus, [1, 1, -1/2] repeats a mu, and [-1, 1]
    # reverses the grid order before the base grid is read as it stands.
    assert verify_catalog(name, mus, grid=grid).to_json() == \
        reference_verify_catalog(name, mus, grid=grid).to_json()


def _counter(monkeypatch, module, name):
    """Counts the calls of module.name through every ybekit binding of it."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("ybekit")]:
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.mark.parametrize("mus,grid,searches", [
    ([1, 2, Fraction(-1, 2)], True, 1),
    ([0], True, 0),
    ([1, 2, Fraction(-1, 2)], False, 0),
])
def test_grid_is_searched_once_per_entry(monkeypatch, mus, grid, searches):
    calls = _counter(monkeypatch, ybe_module, "grid_enumerate")
    verify_catalog("B1", mus, grid=grid)
    assert len(calls) == searches


def test_b1_takes_each_verdict_once_per_tensor_and_mu(monkeypatch):
    # Counting guard.  Taking every verdict at each mu ran the residual,
    # invariance and operator kernels 441, 367 and 432 times here: the base
    # grid confirmed again at mu = 1, each family's residual and invariance
    # verdicts taken although the grid had them, each grid invariance verdict
    # at every mu, the bridge's first Rota-Baxter verdict taken after
    # `:rota-baxter-weight`, and every family verdict taken again at each mu
    # (288 operator runs).  Now 75 + 2 * 74 residual runs (the search with
    # its compiled form, and the scaled grids at 2 and -1/2), 73 + 4
    # invariance runs (the base solutions and `_verify_inv`) and 48 * 2
    # operator runs (`:rota-baxter-weight` and the bridge's second verdict,
    # once per family).
    import ybekit.operators as operators_module
    counts = [_counter(monkeypatch, ybe_module, "_residual_blocks"),
              _counter(monkeypatch, ybe_module, "_invariance_blocks"),
              _counter(monkeypatch, operators_module, "_defect_blocks")]
    assert verify_catalog("B1", [1, 2, Fraction(-1, 2)]).passed
    assert [len(c) for c in counts] == [223, 77, 96]


def test_the_algebra_axioms_are_checked_once_per_entry(monkeypatch):
    # The report reads the verdict that every YbeInstance on the algebra
    # takes (`Algebra._axioms`); it ran check_algebra a second time before.
    monkeypatch.setattr(catalog_module, "_CACHE", {})
    calls = _counter(monkeypatch, algebras_module, "check_algebra")
    assert verify_catalog("B1", [1, 2, Fraction(-1, 2)]).passed
    assert len(calls) == 1


@pytest.mark.parametrize("mus,runs", [
    ([1, 2, Fraction(-1, 2)], 48),
    ([2], 48),
    ([0], 0),
], ids=("1,2,-1/2", "2", "0"))
def test_b1_takes_each_family_verdict_once_per_entry(monkeypatch, mus, runs):
    calls = _counter(monkeypatch, catalog_module, "_verify_family")
    assert verify_catalog("B1", mus).passed
    assert [args[2] for args in calls] == [mus[0]] * runs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_family_verdicts_are_the_same_at_every_mu(name):
    # Each family identity is homogeneous under (r, mu) -> (t r, t mu), which
    # `verify_catalog` relies on when it reports one set of family verdicts
    # under every nonzero mu.  Empty grid sets: every verdict is taken here.
    e = entry(name)
    for fam in e.families:
        want = catalog_module._verify_family(e, fam, 1, fam.tensor(1), set(), set())
        assert all(passed for _, passed in want)
        for mu in (2, Fraction(-1, 2), Fraction(3, 7), -5):
            assert catalog_module._verify_family(e, fam, mu, fam.tensor(mu), set(), set()) == want


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_base_solution_is_confirmed_once_by_the_search(monkeypatch, name):
    searching, confirmed = [], []
    real_search, real_kernel = catalog_module.grid_enumerate, ybe_module._residual_blocks

    def search(*args):
        searching.append(True)
        try:
            return real_search(*args)
        finally:
            searching.pop()

    def kernel(a, mu, c, *args, **kwargs):
        confirmed.append((c, bool(searching)))
        return real_kernel(a, mu, c, *args, **kwargs)

    monkeypatch.setattr(catalog_module, "grid_enumerate", search)
    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("ybekit")]:
        if getattr(mod, "_residual_blocks", None) is real_kernel:
            monkeypatch.setattr(mod, "_residual_blocks", kernel)
    assert verify_catalog(name, [1]).passed
    monkeypatch.undo()
    base = grid_enumerate(YbeInstance(entry(name).algebra, 1), (0, 1))
    for s in base:
        assert [inside for c, inside in confirmed if c == s.coeff] == [True]


def test_the_benchmark_verify_commands_pass_their_checks(capsys):
    # The benchmark's own output checks (perfbench imported read-only), so
    # that a catalog change it would count as failed fails here first.
    commands = perfbench_workloads().verify_commands("full")
    assert len(commands) == len(ALL_NAMES)
    for command in commands:
        code = cli.run(list(command.argv))
        assert command.check(code, capsys.readouterr().out) is None, command.argv


@pytest.mark.parametrize("name", ("A2", "B1", "M2"))
def test_a_family_forms_its_exact_data_once(monkeypatch, name):
    import ybekit.frobenius as frobenius_module
    sym = _counter(monkeypatch, ybe_module, "extended_symmetrizer")
    induced = _counter(monkeypatch, frobenius_module, "induced_operators")
    e = entry(name)
    for fam in e.families:
        assert fam.form is not None
        for mu in (1, Fraction(-1, 2)):
            sym.clear()
            induced.clear()
            verdicts = catalog_module._verify_family(e, fam, mu, fam.tensor(mu), (), ())
            assert all(passed for _, passed in verdicts)
            assert (len(sym), len(induced)) == (1, 1)


def _forms():
    """Every catalog form, and the trace form of M2 with its gram scaled by 2/3."""
    forms = [f for name in ALL_NAMES for f in entry(name).forms.values()]
    trace = entry("M2").forms["trace"]
    scaled = tuple(tuple(Fraction(2, 3) * x for x in row) for row in trace.form.gram)
    return forms + [frobenius_from_form(trace.algebra, BilinearForm(trace.algebra, scaled))]


def _tensors(f, rnd):
    n = f.algebra.dim
    return [t2_zero(n), f.phi,
            Tensor2(n, tuple(tuple(rnd.choice((-2, 0, 1, Fraction(1, 2), Fraction(-2, 3)))
                                   for _ in range(n)) for _ in range(n))),
            Tensor2(n, tuple(tuple(rnd.choice((-1, 0, 3)) for _ in range(n))
                             for _ in range(n)))]


def test_induced_operators_match_dense_products():
    rnd = random.Random(13)
    forms = _forms()
    assert any(type(x) is Fraction for row in forms[-1].form.gram for x in row)
    for f in forms:
        tensors = _tensors(f, rnd)
        tensors += [fam.tensor(mu) for name in ALL_NAMES if f in entry(name).forms.values()
                    for fam in entry(name).families for mu in (1, Fraction(-1, 2))]
        for r in tensors:
            got, want = induced_operators(f, r), reference_induced_operators(f, r)
            assert got == want
            assert [_typed(p.matrix) for p in got] == [_typed(p.matrix) for p in want]


def test_frobenius_pr_prints_the_dense_products(tmp_path, monkeypatch, capsys):
    f = entry("M2").forms["trace"]
    rnd = random.Random(2)

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    apath = write("a.json", io_json.encode_algebra(f.algebra))
    for k, g in enumerate((f.form.gram, _forms()[-1].form.gram)):
        gpath = write(f"g{k}.json", {"gram": [[str(x) for x in row] for row in g]})
        for j, r in enumerate(_tensors(f, rnd)):
            argv = ["frobenius", "pr", "--algebra", apath, "--gram", gpath,
                    "--r", write(f"r{k}{j}.json", io_json.encode_tensor2(r))]
            outs = []
            for impl in (induced_operators, reference_induced_operators):
                monkeypatch.setattr(cli, "induced_operators", impl)
                assert cli.run(argv) == 0
                outs.append(capsys.readouterr())
            assert outs[0] == outs[1]


@pytest.mark.parametrize("n", [2, 5])
def test_induced_operators_reject_a_tensor_of_another_dim(tmp_path, capsys, n):
    f = entry("M2").forms["trace"]
    r = Tensor2(n, tuple(tuple((i + j) % 3 for j in range(n)) for i in range(n)))
    for call in (lambda: induced_operators(f, r), lambda: frobenius_suite(f, 1, r)):
        with pytest.raises(DimensionMismatch):
            call()
    paths = []
    for name, obj in (("a", io_json.encode_algebra(f.algebra)),
                      ("g", {"gram": [[str(x) for x in row] for row in f.form.gram]}),
                      ("r", io_json.encode_tensor2(r))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj), encoding="utf-8")
    argv = ["frobenius", "pr"] + [x for flag, path in zip(("--algebra", "--gram", "--r"), paths)
                                  for x in (flag, str(path))]
    assert cli.run(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: inner dims {n} != 4\n")
