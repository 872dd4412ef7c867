"""The structural axiom checks against the dense loops they replaced: each
check is one or more runs of `algebras._associator`, and its whole report
(verdict, witness and details) must be the dense loop's."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ybekit.algebras
import ybekit.constructions
import ybekit.dendriform
import ybekit.frobenius
import ybekit.operators
from ybekit import (
    BilinearForm,
    Bimodule,
    BimoduleAlgebra,
    Dendriform,
    LinearMap,
    SingularMatrix,
    adjoint_bimodule,
    check_algebra,
    check_balanced_hom,
    check_bimodule,
    check_bimodule_algebra,
    check_dendriform,
    dual_regular_bimodule,
    identity,
    make_algebra,
)
from ybekit.frobenius import form_is_invariant, induced_operators
from ybekit.linalg import unit_vec

from helpers import (
    ALL_NAMES,
    BASES,
    M2_SKEW,
    alg,
    entry,
    rebased,
    rebased_entry,
    reference_check_balanced_hom,
    reference_check_bimodule,
    reference_check_bimodule_algebra,
    reference_check_dendriform,
    reference_form_is_invariant,
    reference_invert,
)

_ENTRIES = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
_BUMPS = st.sampled_from((1, -1, Fraction(1, 3)))
_KINDS = st.sampled_from(("random", "rebased", "perturbed"))


def _cube(draw, n, m=None):
    """An n x n table of random vectors of length m (default n)."""
    return [[[draw(_ENTRIES) for _ in range(n if m is None else m)] for _ in range(n)]
            for _ in range(n)]


def _rebased_algebra(draw):
    """A catalog algebra on a random rational basis: associative, with
    Fraction structure constants."""
    base = alg(draw(st.sampled_from(ALL_NAMES)))
    n = base.dim
    p = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    try:
        reference_invert(p)
    except SingularMatrix:
        assume(False)
    return rebased(base, p)


def _bump(draw, table, *shape):
    """The nested lists of table with one entry, at indices below shape,
    moved by a nonzero amount."""
    out = _lists(table)
    at = out
    for size in shape[:-1]:
        at = at[draw(st.integers(0, size - 1))]
    at[draw(st.integers(0, shape[-1] - 1))] += draw(_BUMPS)
    return out


def _lists(x):
    return [_lists(y) for y in x] if isinstance(x, (tuple, list)) else x


def _zero_module(a):
    return Bimodule(a, 0, ((),) * a.dim, ((),) * a.dim)


def _mixed_module(a):
    """The left action of the regular module with the right action of the
    dual regular one: each a module, but they need not commute."""
    return Bimodule(a, a.dim, adjoint_bimodule(a).left, dual_regular_bimodule(a).right)


def _random_module(draw, a, m):
    n = a.dim
    return Bimodule(a, m, *([[[draw(_ENTRIES) for _ in range(m)] for _ in range(m)]
                             for _ in range(n)] for _ in range(2)))


def _bumped_module(draw, v):
    """v with one action entry moved, on a side drawn at random."""
    n, m = v.algebra.dim, v.dim
    if not (n and m):
        return v
    if draw(st.booleans()):
        return Bimodule(v.algebra, m, _bump(draw, v.left, n, m, m), v.right)
    return Bimodule(v.algebra, m, v.left, _bump(draw, v.right, n, m, m))


@st.composite
def bimodules(draw):
    """Random actions on random algebras (zero-dimensional modules and
    algebras included), the regular, dual regular, zero and mixed modules of
    rebased catalog algebras, and those with one action entry moved."""
    kind = draw(_KINDS)
    if kind == "random":
        n = draw(st.integers(0, 3))
        return _random_module(draw, make_algebra(n, _cube(draw, n)), draw(st.integers(0, 3)))
    a = _rebased_algebra(draw)
    v = draw(st.sampled_from((adjoint_bimodule, dual_regular_bimodule, _zero_module,
                              _mixed_module)))(a)
    return _bumped_module(draw, v) if kind == "perturbed" else v


@st.composite
def bimodule_algebras(draw):
    """Random products on random modules, the regular bimodule algebra and
    the zero module of rebased catalog algebras, and the regular one with one
    product or action entry moved."""
    kind = draw(_KINDS)
    if kind == "random":
        n, m = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        v = _random_module(draw, make_algebra(n, _cube(draw, n)), m)
        return BimoduleAlgebra(v, _cube(draw, m))
    a = _rebased_algebra(draw)
    if draw(st.booleans()):
        return BimoduleAlgebra(_zero_module(a), ())
    v, product, n = adjoint_bimodule(a), a.sc, a.dim
    if kind == "perturbed":
        if draw(st.booleans()):
            product = _bump(draw, product, n, n, n)
        else:
            v = _bumped_module(draw, v)
    return BimoduleAlgebra(v, product)


def _m2_rota_baxter_split():
    """x < y = x P(y), x > y = P(x) y for a weight-zero Rota-Baxter operator
    P on M2: a dendriform algebra whose tables are both nonzero."""
    e = entry("M2")
    a = e.algebra
    p, _ = induced_operators(e.forms["trace"], M2_SKEW)
    cols = tuple(zip(*p.matrix))
    prec = tuple(tuple(a.mul(unit_vec(4, i), cols[j]) for j in range(4)) for i in range(4))
    succ = tuple(tuple(a.mul(cols[i], unit_vec(4, j)) for j in range(4)) for i in range(4))
    return Dendriform(4, prec, succ)


M2_SPLIT = _m2_rota_baxter_split()


@st.composite
def dendriforms(draw):
    """Random tables (dimension 0 included), the splits x < y = xy, x > y = 0
    and x < y = 0, x > y = xy of a rebased catalog algebra and a Rota-Baxter
    split on M2, and those with one entry moved."""
    kind = draw(_KINDS)
    if kind == "random":
        m = draw(st.integers(0, 3))
        return Dendriform(m, _cube(draw, m), _cube(draw, m))
    if draw(st.booleans()):
        d = M2_SPLIT
    else:
        a = _rebased_algebra(draw)
        zero = [[[0] * a.dim for _ in range(a.dim)] for _ in range(a.dim)]
        d = Dendriform(a.dim, *((a.sc, zero) if draw(st.booleans()) else (zero, a.sc)))
    if kind == "perturbed":
        m = d.dim
        if draw(st.booleans()):
            return Dendriform(m, _bump(draw, d.prec, m, m, m), d.succ)
        return Dendriform(m, d.prec, _bump(draw, d.succ, m, m, m))
    return d


@st.composite
def forms(draw):
    """Random gram matrices on random and rebased algebras; invariant forms:
    those of the catalog and of the rebased catalog algebras, and eps(xy)
    for a random functional eps on a rebased algebra, which need not be
    symmetric; and those with one gram entry moved."""
    kind = draw(_KINDS)
    if kind == "random":
        if draw(st.booleans()):
            a = _rebased_algebra(draw)
        else:
            n = draw(st.integers(1, 3))
            a = make_algebra(n, _cube(draw, n))
        n = a.dim
        return a, BilinearForm(a, [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)])
    source = draw(st.sampled_from(("functional", "rebased", "catalog")))
    if source == "functional":
        a = _rebased_algebra(draw)
        eps = [draw(_ENTRIES) for _ in range(a.dim)]
        b = BilinearForm(a, [[sum(e * c for e, c in zip(eps, v)) for v in row] for row in a.sc])
    else:
        if source == "rebased":
            a, _, _, stated = rebased_entry(draw(st.sampled_from(tuple(BASES))))
        else:
            e = entry(draw(st.sampled_from(ALL_NAMES)))
            a, stated = e.algebra, [f.form for f in e.forms.values()]
        assume(stated)
        b = draw(st.sampled_from(stated))
    if kind == "perturbed":
        b = BilinearForm(a, _bump(draw, b.gram, a.dim, a.dim))
    return a, b


@settings(max_examples=150, deadline=None)
@given(v=bimodules())
def test_check_bimodule_matches_dense_reference(v):
    assert check_bimodule(v) == reference_check_bimodule(v)


@settings(max_examples=150, deadline=None)
@given(b=bimodule_algebras())
def test_check_bimodule_algebra_matches_dense_reference(b):
    assert check_bimodule_algebra(b) == reference_check_bimodule_algebra(b)


@settings(max_examples=150, deadline=None)
@given(d=dendriforms())
def test_check_dendriform_matches_dense_reference(d):
    assert check_dendriform(d) == reference_check_dendriform(d)


@settings(max_examples=150, deadline=None)
@given(ab=forms())
def test_form_is_invariant_matches_dense_reference(ab):
    assert form_is_invariant(*ab) == reference_form_is_invariant(*ab)


_SPARSE = (0, 0, 0, 0, 0, 1, -1, Fraction(1, 2))


def _sparse(rnd, rows, cols):
    return tuple(tuple(rnd.choice(_SPARSE) for _ in range(cols)) for _ in range(rows))


def _balanced_hom_cases(rnd):
    """(a, v, beta): on every catalog algebra, its adjoint and dual regular
    modules and a zero module, each with the zero map, random sparse maps
    and (for n = m) the identity with one entry moved or not; a
    zero-dimensional algebra with modules of dimension 0 to 2; and one- and
    two-dimensional algebras with random sparse action tables, which need
    not be bimodules, so that every kind of failure is reached."""
    for name in ALL_NAMES:
        a = alg(name)
        n = a.dim
        for v in (adjoint_bimodule(a), dual_regular_bimodule(a),
                  Bimodule(a, 0, ((),) * n, ((),) * n)):
            m = v.dim
            maps = [_sparse(rnd, n, m) for _ in range(10)] + [((0,) * m,) * n]
            if m == n:
                eye = [list(row) for row in identity(n)]
                maps.append(identity(n))
                for _ in range(4):
                    bumped = [row[:] for row in eye]
                    bumped[rnd.randrange(n)][rnd.randrange(n)] += rnd.choice((1, -1))
                    maps.append(bumped)
            for bm in maps:
                yield a, v, LinearMap(bm)
    a0 = make_algebra(0, (), unit=None)
    for m in range(3):
        yield a0, Bimodule(a0, m, (), ()), LinearMap(())
    for _ in range(400):
        n, m = rnd.randint(1, 2), rnd.randint(1, 2)
        a = make_algebra(n, [_sparse(rnd, n, n) for _ in range(n)])
        v = Bimodule(a, m, [_sparse(rnd, m, m) for _ in range(n)],
                     [_sparse(rnd, m, m) for _ in range(n)])
        yield a, v, LinearMap(_sparse(rnd, n, m))


def test_check_balanced_hom_matches_dense_reference():
    seen = set()
    for a, v, beta in _balanced_hom_cases(random.Random(7)):
        rep = check_balanced_hom(a, v, beta)
        assert rep == reference_check_balanced_hom(a, v, beta)
        if rep.witness:
            kind, at = rep.witness["kind"], rep.witness.get("basis_index", rep.witness.get("pair"))
            seen.add((kind, at not in (0, [0, 0])))
        else:
            seen.add(("pass", a.dim > 0 and v.dim > 0))
    # every kind of report, and a failure away from index 0 or pair (0, 0)
    assert seen == {(kind, away) for kind in ("pass", "left-intertwine", "right-intertwine",
                                              "balance") for away in (False, True)}


def _corrupted_adjoint():
    a = alg("A2")
    v = adjoint_bimodule(a)
    return Bimodule(a, 2, v.left, [[[1, 1], [0, 0]], [[0, 0], [0, 1]]])


# Each check with the number of `_associator` runs it makes on a passing
# input, a passing input and a failing one.
_CHECKS = {
    "algebra": (check_algebra, 1, lambda: alg("M2"),
                lambda: make_algebra(2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])),
    "bimodule": (check_bimodule, 3, lambda: dual_regular_bimodule(alg("B1")),
                 _corrupted_adjoint),
    "bimodule-algebra": (check_bimodule_algebra, 4,
                         lambda: BimoduleAlgebra(adjoint_bimodule(alg("B1")), alg("B1").sc),
                         lambda: BimoduleAlgebra(_corrupted_adjoint(), alg("A2").sc)),
    "dendriform": (check_dendriform, 3, lambda: M2_SPLIT,
                   lambda: Dendriform(1, (((1,),),), (((1,),),))),
    "balanced-hom": (lambda avb: check_balanced_hom(*avb), 3,
                     lambda: (alg("A2"), adjoint_bimodule(alg("A2")), LinearMap(identity(2))),
                     lambda: (alg("M2"), dual_regular_bimodule(alg("M2")),
                              LinearMap(identity(4)))),
    "form": (lambda ab: form_is_invariant(*ab), 1,
             lambda: (alg("M2"), entry("M2").forms["trace"].form),
             lambda: (alg("A2"), BilinearForm(alg("A2"), ((1, 1), (1, 0))))),
}


def _passed(result):
    return result if type(result) is bool else result.passed


@pytest.mark.parametrize("name", _CHECKS)
def test_each_check_runs_the_associator_and_nothing_else(name, monkeypatch):
    check, runs, good, bad = _CHECKS[name]
    good, bad = good(), bad()
    assert _passed(check(good)) and not _passed(check(bad))
    kernel, calls = ybekit.algebras._associator, []

    def use(associator):
        for module in (ybekit.algebras, ybekit.frobenius):
            monkeypatch.setattr(module, "_associator", associator)

    def spy(*args):
        calls.append(args[:4])
        return kernel(*args)

    def dense(*args):
        raise AssertionError("a dense product ran")

    for module in (ybekit.algebras, ybekit.dendriform):  # every module that binds it
        monkeypatch.setattr(module, "apply_table", dense)
    monkeypatch.setattr(ybekit.algebras, "_action_matrix", dense)
    monkeypatch.setattr(ybekit.constructions, "mat_mul", dense)
    use(spy)
    assert _passed(check(good)) and len(calls) == runs
    assert all(len(x) == 4 for tables in calls for t in tables for x in t)
    # The verdict is the kernel's: with no failing triple the failing input
    # passes, and with one the passing input fails.
    use(lambda *args: [])
    assert _passed(check(bad))
    monkeypatch.undo()
    use(lambda *args: [(0, 0, 0)])
    assert not _passed(check(good))
