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
symmetrizer equals the Fraction formula.  Only the blocks that no product
of two earlier basis vectors implies are solved (`ybe._implied_blocks`):
the basis equals that of the system of every block on associative and
non-associative tables, the latter through the backstop that solves every
block."""

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
    reference_kept_blocks,
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
    # The same rows in the same order as the dense rows of the kept blocks,
    # scaled by the denominator of the structure constants; a zero-product
    # algebra hands over no rows.  Every algebra here is associative, so
    # the kept blocks are the only system solved.
    dsc = a._products[0]
    want = [tuple(dsc * x for x in row)
            for row in dense_invariant_rows(a, reference_kept_blocks(a))]
    assert systems == [tuple(want)]


@pytest.mark.parametrize("m, shape", [(3, (114, 45)), (4, (348, 136))])
def test_matrix_algebra_systems_keep_their_shape(m, shape, monkeypatch):
    # The equations are read off the kept blocks of `_invariance_blocks`, in
    # order; repeated and zero ones are dropped as from the flat table.  The
    # system of every block would be 132 x 45 and 444 x 136.
    systems = _capture_systems(monkeypatch)
    assert len(invariant_symmetric_basis(matrix_algebra(m))) == 1
    [rows] = systems
    assert (len(rows), len(rows[0])) == shape


def test_m4_elimination_writes_few_entries(monkeypatch):
    # A deterministic guard against dense elimination: count the entries of
    # the rows that row operations produce while the M4 system (348 x 136,
    # about 1.3 entries a row) is solved.  Sparse rows write 160 in 95
    # operations; a dense row has 136 entries, so dense rows write 12,920.
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


def _upper_triangular(m):
    """The upper-triangular m x m matrices on their matrix units E_ab, a <= b."""
    units = [(a, b) for a in range(m) for b in range(a, m)]
    index = {u: t for t, u in enumerate(units)}
    return algebra_from_products(len(units), {
        (index[a, b], index[b, e]): {index[a, e]: 1} for a, b in units for e in range(b, m)})


def _cyclic(m):
    """The group algebra of the cyclic group of order m on its elements."""
    return algebra_from_products(m, {(i, k): {(i + k) % m: 1}
                                     for i in range(m) for k in range(m)})


def _rescaled_m3():
    """M3 on the basis f_t = s_t E_t: f_i f_k = (s_i s_k / s_p) f_p."""
    s = [Fraction(x) for x in (1, 2, "1/3", "3/2", 1, 5, "1/2", "2/7", 1)]
    return algebra_from_products(9, {(i, k): {p: s[i] * s[k] / s[p]}
                                     for i, k, p, _ in matrix_algebra(3)._products[1]})


def _random_table(seed, n):
    """About half of the n^2 basis products set to one random multiple of a
    random basis vector: in general not associative."""
    rnd = random.Random(seed)
    return algebra_from_products(n, {
        (i, k): {rnd.randrange(n): rnd.choice((1, -1, 2, Fraction(1, 2)))}
        for i in range(n) for k in range(n) if rnd.random() < 0.5})


def _swap():
    """e0 e0 = e1 and e1 e1 = e0: e1 is implied, but the table is not
    associative, and the block of e0 alone leaves a larger kernel."""
    return algebra_from_products(2, {(0, 0): {1: 1}, (1, 1): {0: 1}})


FAMILIES = {f"M{m}": (lambda m=m: matrix_algebra(m)) for m in range(1, 6)}
FAMILIES.update({name: (lambda name=name: alg(name)) for name in ALL_NAMES})
FAMILIES.update({f"U{m}": (lambda m=m: _upper_triangular(m)) for m in (2, 3, 4)})
FAMILIES.update({f"C{m}": (lambda m=m: _cyclic(m)) for m in (2, 3, 4, 5)})
FAMILIES["M3-rescaled"] = _rescaled_m3
FAMILIES.update({f"table{seed}": (lambda seed=seed: _random_table(seed, 3 + seed % 2))
                 for seed in range(3)})
FAMILIES["swap"] = _swap


def _every_block_basis(a):
    """The basis read off the system of every block, as before blocks were
    kept or implied."""
    n = a.dim
    unknown = ybe_module._symmetric_unknowns(n)
    return [tuple(tuple(v[unknown[i][j]] for j in range(n)) for i in range(n))
            for v in ybe_module._kernel(ybe_module._invariant_forms(a), n * (n + 1) // 2)]


@pytest.mark.parametrize("name", FAMILIES)
def test_kept_blocks_give_the_basis_of_every_block(name):
    a = FAMILIES[name]()
    got = [t.coeff for t in invariant_symmetric_basis(a)]
    assert typed(got) == typed(_every_block_basis(a))


def test_the_family_tables_are_what_they_claim():
    # The random tables and the swap are not associative; the families
    # listed have an implied block, so each kind of table meets both paths.
    implied = {"M2", "M3", "M4", "M5", "B3", "C3", "C4", "C5", "M3-rescaled", "table1", "swap"}
    for name, make in FAMILIES.items():
        a = make()
        assert a._axioms.passed == (not name.startswith(("table", "swap"))), name
        assert bool(ybe_module._implied_blocks(a)[1]) == (name in implied), name


def test_a_non_associative_table_runs_the_backstop(monkeypatch):
    # The kept block of e0 asks only s00 = 0 (kernel 2: s01 and s11 free);
    # the implied block of e1 asks s11 = 0, which the basis tensor with
    # s11 = 1 fails, so the system of every block is solved too (kernel 1).
    a = _swap()
    assert ybe_module._implied_blocks(a) == ([0], [1])
    assert len(ybe_module._kernel(ybe_module._invariant_forms(a, [0]), 3)) == 2
    systems = _capture_systems(monkeypatch)
    got = [t.coeff for t in invariant_symmetric_basis(a)]
    assert got == [((0, 1), (1, 0))]
    assert typed(got) == typed([t.coeff for t in reference_invariant_symmetric_basis(a)])
    assert systems == [tuple(dense_invariant_rows(a, [0])), tuple(dense_invariant_rows(a))]


def test_m4_evaluates_7_of_16_blocks_for_its_system(monkeypatch):
    # The system is read off the 7 kept blocks; the 9 implied blocks are
    # evaluated once, on the numerators of the one basis tensor, and pass,
    # so no block is evaluated for a second system.
    calls = []
    blocks = ybe_module._invariance_blocks

    def counted(a, x, ks=None):
        calls.append([ks, 0])
        for block in blocks(a, x, ks):
            calls[-1][1] += 1
            yield block

    monkeypatch.setattr(ybe_module, "_invariance_blocks", counted)
    assert len(invariant_symmetric_basis(matrix_algebra(4))) == 1
    kept = [0, 1, 2, 3, 4, 8, 12]  # E11, E12, E13, E14, E21, E31, E41
    assert calls == [[kept, 7], [[p for p in range(16) if p not in kept], 9]]


@pytest.mark.parametrize("m, kept", [(3, 5), (4, 7), (5, 9)])
def test_matrix_algebras_keep_the_first_row_and_column(m, kept):
    # E_ab with a, b > 1 is E_a1 E_1b, both earlier; E_1b and E_a1 are
    # products only of later or equal units.
    a = matrix_algebra(m)
    got = ybe_module._implied_blocks(a)
    assert len(got[0]) == kept == 2 * m - 1
    assert got[0] == reference_kept_blocks(a)
    assert sorted(got[0] + got[1]) == list(range(m * m))


def test_only_b3_and_m2_have_an_implied_block_in_the_catalog():
    implied = {name: ybe_module._implied_blocks(alg(name))[1] for name in ALL_NAMES}
    assert {name: ks for name, ks in implied.items() if ks} == {"B3": [2], "M2": [3]}


@settings(max_examples=120, deadline=None)
@given(constant_algebras())
def test_implied_blocks_match_the_dense_scan(a):
    kept, implied = ybe_module._implied_blocks(a)
    assert kept == reference_kept_blocks(a)
    assert implied == [p for p in range(a.dim) if p not in kept]
