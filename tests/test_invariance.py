"""The sparse invariance kernel (`ybe._invariance_blocks`) against the dense
Fraction references in helpers: `is_invariant` report for report, witness
included, and `invariant_symmetric_basis` against the full system solved by
Fraction elimination, its system row for row against the dense row builder,
on catalog algebras, matrix algebras, algebras with fractional structure
constants, a non-unital, a zero-product and a zero-dimensional algebra.
The system goes to the elimination as sparse rows; a count of the entries
that row operations write guards against it being solved densely.  Its
rows are read off packed integer unknowns and equal the dense rows, on
random structure constants and at the coefficient bound; the extended
symmetrizer equals the Fraction formula."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybekit.linalg as linalg_module
import ybekit.ybe as ybe_module
from ybekit import (
    NotUnital,
    Tensor2,
    YbeInstance,
    extended_symmetrizer,
    invariant_symmetric_basis,
    is_invariant,
    is_symmetrized_invariant,
    unit_square,
)
from ybekit.algebras import algebra_from_products, make_algebra, matrix_algebra
from ybekit.poly import Poly

from helpers import (
    ALL_NAMES,
    alg,
    dense_invariant_rows,
    entry,
    rebased,
    reference_extended_symmetrizer,
    reference_invariant_symmetric_basis,
    reference_is_invariant,
    typed,
)

MUS = (1, 2, Fraction(-1, 2))
SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _nilpotent():
    """e1 e2 = e3, every other product zero: associative, with no unit."""
    return algebra_from_products(3, {(0, 1): {2: 1}})


ALGEBRAS = {name: (lambda name=name: alg(name)) for name in ALL_NAMES}
ALGEBRAS.update({
    "M3": lambda: matrix_algebra(3),
    "A2-rational": lambda: rebased(alg("A2"), ((Fraction(1, 2), 1), (Fraction(2, 3), 1))),
    "B1-rational": lambda: rebased(alg("B1"), (
        (1, Fraction(1, 2), 0), (Fraction(-1, 3), 1, 0), (Fraction(1, 4), 2, Fraction(3, 5)))),
    "B3-rational": lambda: rebased(alg("B3"), (
        (1, 0, Fraction(1, 2)), (Fraction(2, 3), 1, 0), (0, Fraction(-1, 2), 3))),
    "M2-rational": lambda: rebased(alg("M2"), (
        (1, 0, Fraction(1, 2), 0), (0, 1, 0, 0), (0, Fraction(-1, 3), 1, 0),
        (Fraction(1, 2), 0, 0, 2))),
    "nilpotent": _nilpotent,
    "zero-dim": lambda: make_algebra(0, []),
    "zero-product": lambda: make_algebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]),
})


def _random_tensor(rnd, n, values=(-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3))):
    return Tensor2(n, tuple(tuple(rnd.choice(values) for _ in range(n)) for _ in range(n)))


def _same(a, s):
    got = is_invariant(a, s)
    assert got.to_json() == reference_is_invariant(a, s).to_json()
    return got


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("mu", MUS, ids=("1", "2", "-1/2"))
def test_catalog_family_symmetrizers(name, mu):
    e = entry(name)
    i = YbeInstance(e.algebra, mu)
    for fam in e.families:
        r = fam.tensor(mu)
        _same(e.algebra, extended_symmetrizer(i, r))
        # A perturbed tensor whose symmetrizer is, in general, not invariant.
        bump = Tensor2(r.dim, tuple(tuple(x + (j == 0) for j, x in enumerate(row))
                                    for row in r.coeff))
        rep = _same(e.algebra, extended_symmetrizer(i, bump))
        assert is_symmetrized_invariant(i, bump).witness == rep.witness


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_invariant_spans_and_stated_tensors(name):
    a = alg(name)
    for t in invariant_symmetric_basis(a) + list(entry(name).inv_span):
        assert _same(a, t).passed


def test_witness_is_the_first_failing_block_divided_out():
    # B1 is C x C x C: the symmetric e1 (x) e2 + e2 (x) e1 fails first at e1.
    a = alg("B1")
    third = Fraction(1, 3)
    rep = _same(a, Tensor2(3, ((0, third, 0), (third, 0, 0), (0, 0, 0))))
    assert rep.witness == {"basis_index": 0,
                           "defect": [["0", "-1/3", "0"], ["1/3", "0", "0"], ["0", "0", "0"]]}
    # B1 on a rational basis: both the tensor and the constants carry denominators.
    b = ALGEBRAS["B1-rational"]()
    rep = _same(b, Tensor2(3, ((0, third, 0), (third, 0, 0), (0, 0, 0))))
    assert not rep.passed and any("/" in x for row in rep.witness["defect"] for x in row)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_matrix_algebras_trace_and_random(m):
    a = matrix_algebra(m)
    n = a.dim
    tau = invariant_symmetric_basis(a)
    assert len(tau) == 1
    for c in (1, -3, Fraction(1, 2)):
        assert _same(a, tau[0].scale(c)).passed
    rnd = random.Random(m)
    for _ in range(3 if m < 4 else 1):
        assert not _same(a, _random_tensor(rnd, n)).passed
    # A single off-trace entry: the witness is a sparse fractional block.
    s = tau[0].add(Tensor2(n, tuple(tuple(Fraction(1, 3) if (i, j) == (n - 1, 1) else 0
                                          for j in range(n)) for i in range(n))))
    assert not _same(a, s).passed


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_random_tensors(name):
    a = ALGEBRAS[name]()
    rnd = random.Random(name)
    for _ in range(4):
        t = _random_tensor(rnd, a.dim)
        _same(a, t)
        _same(a, t.add(t.flip()))
    for t in invariant_symmetric_basis(a):
        assert _same(a, t).passed


@pytest.mark.parametrize("name", ("A2-rational", "B1-rational", "B3-rational"))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hypothesis_rational_tensors(name, data):
    a = ALGEBRAS[name]()
    n = a.dim
    flat = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    s = Tensor2(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
    _same(a, s)
    basis = invariant_symmetric_basis(a)
    coefs = data.draw(st.lists(SCALARS, min_size=len(basis), max_size=len(basis)))
    total = Tensor2(n, ((0,) * n,) * n)
    for c, t in zip(coefs, basis):
        total = total.add(t.scale(c))
    assert _same(a, total).passed


def _capture_systems(monkeypatch):
    """Record, densified, every system `invariant_symmetric_basis` hands to
    the sparse elimination `linalg._kernel`."""
    systems = []
    kernel = ybe_module._kernel

    def capture(rows, ncols):
        systems.append(tuple(tuple(row.get(c, 0) for c in range(ncols)) for row in rows))
        return kernel(rows, ncols)

    monkeypatch.setattr(ybe_module, "_kernel", capture)
    return systems


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + ["M4", "M5"])
def test_symmetric_basis_matches_dense_rows(name, monkeypatch):
    a = matrix_algebra(int(name[1])) if name in ("M4", "M5") else ALGEBRAS[name]()
    systems = _capture_systems(monkeypatch)
    got = [t.coeff for t in invariant_symmetric_basis(a)]
    assert [typed(c) for c in got] \
        == [typed(t.coeff) for t in reference_invariant_symmetric_basis(a)]
    # The same rows in the same order, scaled by the denominator of the
    # structure constants; a zero-product algebra hands over no rows.
    dsc = a._products[0]
    want = [tuple(dsc * x for x in row) for row in dense_invariant_rows(a)]
    assert systems == [tuple(want)]


@pytest.mark.parametrize("m, shape", [(3, (132, 45)), (4, (444, 136))])
def test_matrix_algebra_systems_keep_their_shape(m, shape, monkeypatch):
    # The equations are read off every block of `_invariance_blocks`, in
    # order; repeated and zero ones are dropped as from the flat table.
    systems = _capture_systems(monkeypatch)
    assert len(invariant_symmetric_basis(matrix_algebra(m))) == 1
    [rows] = systems
    assert (len(rows), len(rows[0])) == shape


def test_m4_elimination_writes_few_entries(monkeypatch):
    # A deterministic guard against dense elimination: count the entries of
    # the rows that row operations produce while the M4 system (444 x 136,
    # about 1.4 entries a row) is solved.  Sparse rows write 384 in 573
    # operations; a dense row has 136 entries, so dense rows write 82,280.
    written = []
    cancel = linalg_module._cancel

    def counted(row, prow, c):
        out = cancel(row, prow, c)
        written.append(len(out))
        return out

    monkeypatch.setattr(linalg_module, "_cancel", counted)
    assert len(invariant_symmetric_basis(matrix_algebra(4))) == 1
    assert written and sum(written) <= 1000


def test_extended_symmetrizer_matches_tensor_operations():
    rnd = random.Random(7)
    for name in ALL_NAMES + ("A2-rational", "B1-rational", "M2-rational"):
        a = ALGEBRAS[name]()
        for mu in (0,) + MUS + (Fraction(2, 3),):
            i = YbeInstance(a, mu)
            for _ in range(3):
                r = _random_tensor(rnd, a.dim)
                want = r.add(r.flip()) if mu == 0 else \
                    r.add(r.flip()).sub(unit_square(a).scale(mu))
                got = extended_symmetrizer(i, r)
                assert typed(got.coeff) == typed(want.coeff)


def test_extended_symmetrizer_needs_no_unit_at_mu_zero():
    a = _nilpotent()
    r = Tensor2(3, ((0, 1, 0), (0, 0, Fraction(1, 2)), (2, 0, 0)))
    s = extended_symmetrizer(YbeInstance(a, 0), r)
    assert s.coeff == ((0, 1, 2), (1, 0, Fraction(1, 2)), (2, Fraction(1, 2), 0))
    with pytest.raises(NotUnital):
        YbeInstance(a, 1)


_BUILT = {}


def _cached(name):
    if name not in _BUILT:
        _BUILT[name] = ALGEBRAS[name]()
    return _BUILT[name]


@pytest.mark.parametrize("name", ("A2", "M2", "A2-rational", "B1-rational", "B3-rational",
                                  "M2-rational"))
@settings(max_examples=25, deadline=None)
@given(mu=st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6)),
       data=st.data())
def test_extended_symmetrizer_matches_fraction_formula(name, mu, data):
    # The rebased algebras have Fraction units (but A2-rational, whose unit
    # is (-2, 3)); r and mu are rational.
    a = _cached(name)
    n = a.dim
    flat = data.draw(st.lists(SCALARS, min_size=n * n, max_size=n * n))
    r = Tensor2(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
    i = YbeInstance(a, mu)
    assert typed(extended_symmetrizer(i, r).coeff) \
        == typed(reference_extended_symmetrizer(i, r).coeff)


CONSTANTS = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-5, max_value=5, max_denominator=7),
                      st.integers(-10 ** 40, 10 ** 40))


@st.composite
def constant_algebras(draw):
    """Algebras of dimension 1 to 4 with a few random structure constants,
    negative, fractional or large, associative or not."""
    n = draw(st.integers(1, 4))
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2 * n * n))):
        sc[draw(index)][draw(index)][draw(index)] = draw(CONSTANTS)
    return make_algebra(n, sc)


def _dense_forms(a):
    """The rows of `dense_invariant_rows` as {unknown: c}, scaled by the
    denominator of the structure constants."""
    dsc = a._products[0]
    return [{v: dsc * c for v, c in enumerate(row) if c} for row in dense_invariant_rows(a)]


@settings(max_examples=120, deadline=None)
@given(constant_algebras())
def test_packed_forms_match_poly_forms(a):
    # The same rows in the same order as the dense rows.
    assert ybe_module._invariant_forms(a) == _dense_forms(a)


@pytest.mark.parametrize("c", (1, -1, 7, 2 ** 70 - 1, -(2 ** 70 - 1), Fraction(2 ** 31 - 1, 3)))
def test_packed_forms_at_the_coefficient_bound(c):
    # e0 e1 = c e1 and e1 e0 = -c e1: entry (1, 1) of the block of e0 gains
    # c s11 from the left piece and c s11 from the right one, so s11 has
    # coefficient 2c, the most that constants of size |c| allow.  For
    # |c| = 2**k - 1 that is 2**(k+1) - 2, one below the largest digit of
    # the width it sets.
    a = algebra_from_products(2, {(0, 1): {1: c}, (1, 0): {1: -c}})
    c = a._products[1][0][3]  # the integer constant
    forms = ybe_module._invariant_forms(a)
    assert {2: 2 * c} in forms
    assert max(abs(x) for f in forms for x in f.values()) == 2 * abs(c)
    assert forms == _dense_forms(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 70), st.data())
def test_unpacked_reads_signed_digits(w, data):
    top = (1 << (w - 1)) - 1  # the largest digit of width w
    digit = st.one_of(st.sampled_from((top, -top)), st.integers(-top, top)).filter(bool)
    digits = data.draw(st.dictionaries(st.integers(0, 40), digit, max_size=6))
    packed = sum(d << (w * v) for v, d in digits.items())
    assert ybe_module._unpacked(packed, w) == digits


def test_symmetric_basis_uses_no_polynomial_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Poly arithmetic on the invariant basis path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Poly, name, refuse)
    for a in (matrix_algebra(4), ALGEBRAS["B1-rational"](), alg("A2")):
        assert invariant_symmetric_basis(a)
