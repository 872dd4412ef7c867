from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybekit import (
    DimensionMismatch,
    SingularMatrix,
    Tensor2,
    YbeInstance,
    exact,
    grid_enumerate,
    identity,
    invert,
    kernel_basis,
    make_algebra,
    scalar_str,
)
from ybekit.linalg import (
    _echelon,
    _kernel,
    in_span,
    is_zero_vec,
    mat_mul,
    mat_vec,
    rank,
    transpose,
)

from helpers import _echelon as reference_echelon
from helpers import (
    reference_in_span,
    reference_invert,
    reference_kernel_basis,
    reference_rank,
    typed,
)


def test_exact_collapses_integral_fractions():
    assert exact(Fraction(4, 2)) == 2
    assert isinstance(exact(Fraction(4, 2)), int)
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert exact(7) == 7


def test_exact_refuses_floats():
    for x in (0.5, 1.0, float("inf")):
        with pytest.raises(ValueError, match="scalar: expected int, got float"):
            exact(x)
    assert exact("1/2") == Fraction(1, 2) and exact(True) == 1


def test_entry_points_refuse_floats():
    a = make_algebra(1, (((1,),),), unit=(1,))
    inst = YbeInstance(a, 1)
    calls = [lambda: YbeInstance(a, 0.1), lambda: grid_enumerate(inst, (0, 0.1)),
             lambda: Tensor2(1, ((0.5,),)), lambda: make_algebra(1, (((0.5,),),)),
             lambda: make_algebra(1, (((1,),),), unit=(1.0,))]
    for call in calls:
        with pytest.raises(ValueError, match="scalar: expected int, got float"):
            call()


def test_scalar_str():
    assert scalar_str(3) == "3"
    assert scalar_str(Fraction(-3, 5)) == "-3/5"
    assert scalar_str(Fraction(6, 2)) == "3"


def test_scalar_str_of_ints_matches_fraction_formatting():
    def via_fraction(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    big = 10 ** 199 + 7  # 200 digits
    for x in (0, -1, -42, big, -big, Fraction(0), Fraction(-3, 5), Fraction(6, 2),
              Fraction(big, 3), Fraction(-big, 10 ** 150), True, False):
        assert scalar_str(x) == via_fraction(x)


def test_kernel_of_identity_is_empty():
    assert kernel_basis(identity(2)) == []


def test_kernel_of_zero_is_full():
    basis = kernel_basis(((0, 0), (0, 0)))
    assert len(basis) == 2


def test_kernel_rank_one():
    # by hand: x + y = 0 twice, so the kernel is spanned by (1, -1)
    basis = kernel_basis(((1, 1), (1, 1)))
    assert len(basis) == 1
    x, y = basis[0]
    assert x == -y != 0


def test_invert_examples():
    assert invert(identity(3)) == identity(3)
    assert invert(((2, 0), (0, 3))) == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert invert(((1, 1), (0, 1))) == ((1, -1), (0, 1))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(((1, 2), (2, 4)))


small = st.integers(min_value=-4, max_value=4)
# The values of st.fractions(-4, 4, max_denominator=6), integral ones such as
# Fraction(2, 1), which are not ints, included, simplest first: sampling
# one of them is one draw where st.fractions makes several.
FRACTIONS = tuple(sorted({Fraction(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)},
                         key=lambda f: (f.denominator, abs(f), -f)))
scalars = st.one_of(small, st.sampled_from(FRACTIONS))


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return tuple(tuple(draw(scalars) for _ in range(cols)) for _ in range(rows))


def _degenerate(draw, m):
    """m with zero rows, repeated rows and multiples of rows inserted."""
    cols = len(m[0])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("zero", "repeat", "multiple")))
        row = m[draw(st.integers(min_value=0, max_value=len(m) - 1))]
        extra = {"zero": (0,) * cols, "repeat": row,
                 "multiple": tuple(draw(scalars) * x for x in row)}[kind]
        m.insert(draw(st.integers(min_value=0, max_value=len(m))), extra)
    return tuple(m)


@st.composite
def degenerate_matrices(draw):
    """Wide, tall and square matrices with zero rows, repeated rows and
    multiples of rows inserted."""
    return _degenerate(draw, list(draw(matrices(max_dim=7))))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    for v in kernel_basis(m):
        assert is_zero_vec(mat_vec(m, v))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == len(m[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_invert_left_inverse(n, data):
    m = tuple(tuple(data.draw(small) for _ in range(n)) for _ in range(n))
    try:
        inv = invert(m)
    except SingularMatrix:
        assert rank(m) < n
        return
    assert mat_mul(inv, m) == identity(n)
    assert mat_mul(m, inv) == identity(n)




@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.booleans(), st.data())
def test_invert_matches_fraction_reference(n, repeat, data):
    m = [tuple(data.draw(scalars) for _ in range(n)) for _ in range(n)]
    if repeat and n > 1:
        m[data.draw(st.integers(0, n - 1))] = m[data.draw(st.integers(0, n - 1))]
    m = tuple(m)
    try:
        expected = reference_invert(m)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            invert(m)
        return
    assert typed(invert(m)) == typed(expected)


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=5), st.data())
def test_combinations_lie_in_span(m, data):
    coeffs = [data.draw(scalars) for _ in m]
    v = tuple(sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(len(m[0])))
    assert in_span(list(m), v)


def test_in_span():
    basis = [(1, 0, 1), (0, 1, 0)]
    assert in_span(basis, (2, 3, 2))
    assert not in_span(basis, (1, 0, 0))
    assert in_span([], (0, 0))
    assert not in_span([], (0, 1))


def test_ragged_rows_and_wrong_vector_lengths_raise():
    ragged = ((1, 2), (3,))
    for call in (lambda: kernel_basis(ragged), lambda: rank(ragged),
                 lambda: rank(((1,), (3, 4))), lambda: invert(ragged),
                 lambda: invert(((1, 2, 0), (0, 1, 0))),
                 lambda: in_span([(1, 0)], (1, 0, 5)), lambda: in_span([(1, 0)], (1,)),
                 lambda: in_span([(1, 0)], (0, 0, 0)), lambda: in_span([(1, 0), (1,)], (1, 0))):
        with pytest.raises(DimensionMismatch):
            call()


nonzero = scalars.filter(bool)


@st.composite
def sparse_matrices(draw, max_dim=10):
    """Mostly-zero matrices, wide, tall or square: each row holds at most
    three nonzero entries (often one, sometimes none), and zero rows,
    repeated rows and multiples of rows are inserted."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    m = []
    for _ in range(rows):
        row = [0] * cols
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=3)):
            row[c] = draw(nonzero)
        m.append(tuple(row))
    return _degenerate(draw, m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(degenerate_matrices(), sparse_matrices()), st.data())
def test_elimination_matches_fraction_reference(m, data):
    assert rank(m) == reference_rank(m)
    assert typed(kernel_basis(m)) == typed(reference_kernel_basis(m))
    cols = len(m[0])
    coeffs = [data.draw(st.sampled_from((0, 1, -2, Fraction(1, 3)))) for _ in m]
    inside = tuple(sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols))
    unit = tuple(int(j == data.draw(st.integers(0, cols - 1))) for j in range(cols))
    for v in (m[0], inside, unit, (0,) * cols):
        assert in_span(list(m[1:]), v) == reference_in_span(m[1:], v)
        assert in_span(list(m), v) == reference_in_span(m, v)
    # The leading square block, singular or not.
    k = min(len(m), cols)
    block = tuple(row[:k] for row in m[:k])
    try:
        expected = reference_invert(block)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            invert(block)
    else:
        assert typed(invert(block)) == typed(expected)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_sparse_invert_matches_fraction_reference(n, data):
    # A permuted diagonal with a few extra entries: sparse and mostly invertible.
    perm = data.draw(st.permutations(range(n)))
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = data.draw(nonzero)
    for _ in range(data.draw(st.integers(0, n))):
        m[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = data.draw(scalars)
    m = tuple(tuple(row) for row in m)
    try:
        expected = reference_invert(m)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            invert(m)
        return
    assert typed(invert(m)) == typed(expected)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_kernel_of_sparse_integer_rows(m):
    # `_kernel` takes the integer rows {column: entry} that
    # `invariant_symmetric_basis` builds; scaling a row leaves the kernel.
    rows = []
    for row in m:
        d = 1
        for x in row:
            d = d * Fraction(x).denominator
        rows.append({c: int(x * d) for c, x in enumerate(row) if x})
    assert typed(_kernel(rows, len(m[0]))) == typed(reference_kernel_basis(m))
    # No rows: every column is free.
    assert _kernel([], len(m[0])) == list(identity(len(m[0])))


def test_transpose_involution():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(m)) == m


def _same_echelon(rows, cols):
    """`_echelon` of sparse integer rows is the Fraction reference's reduced
    row echelon form once each pivot row is divided by its pivot entry, and
    leaves its input as it was."""
    before = [dict(row) for row in rows]
    got, pivots = _echelon(rows)
    want, want_pivots = reference_echelon(
        [[Fraction(row.get(c, 0)) for c in range(cols)] for row in rows])
    assert rows == before
    assert pivots == want_pivots
    assert [[Fraction(row.get(c, 0), row[pc]) for c in range(cols)]
            for row, pc in zip(got, pivots)] == want[:len(pivots)]
    assert all(x for row in got for x in row.values())


def test_echelon_peels_one_entry_rows():
    # {0: 4, 1: 5} is empty once the peeled columns 0 and 1 are deleted.
    _same_echelon([{0: 2}, {1: -3}, {0: 4, 1: 5}, {1: 1, 2: 3}, {2: 6, 3: -4}], 4)
    # Two one-entry rows with different coefficients on column 2.
    _same_echelon([{2: 3}, {0: 1, 2: 7}, {2: -5}, {0: 2, 1: 4}, {1: 2, 3: 6}], 4)
    rows, pivots = _echelon([{2: 3}, {2: -5}, {0: 6, 2: 1}])
    assert (rows, pivots) == ([{0: 1}, {2: 1}], [0, 2])
    # Every row peeled away, and nothing left to eliminate.
    assert _echelon([{1: -7}, {1: 7, 3: 2}, {3: 5}]) == ([{1: 1}, {3: 1}], [1, 3])


@st.composite
def one_entry_heavy_rows(draw):
    """Sparse integer rows over up to 8 columns, most of them one-entry."""
    cols = draw(st.integers(1, 8))
    entry = st.integers(-6, 6).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        at = draw(st.lists(st.integers(0, cols - 1), min_size=1, unique=True,
                           max_size=draw(st.sampled_from((1, 1, 1, 2, 3)))))
        rows.append({c: draw(entry) for c in at})
    return rows, cols


@settings(max_examples=200, deadline=None)
@given(one_entry_heavy_rows())
def test_echelon_matches_fraction_reference_on_one_entry_rows(case):
    _same_echelon(*case)
