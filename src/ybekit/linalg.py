"""Exact linear algebra over the rationals, and the integer numerators that
every identity of the package is checked on.

Scalars are Python ints or fractions.Fraction.  Integer inputs stay integers
through +,-,* so the hot paths avoid Fraction overhead.  Matrices and
vectors are dense tuples; elimination is not.  The one elimination routine,
`_echelon`, works on sparse integer rows {column: entry}: each dense input
row is cleared of denominators and stripped of zeros first (`_integer_rows`),
elimination cross-multiplies instead of dividing, and a step touches only
the rows that hold the pivot column.  One-entry rows are peeled before
that: each makes its column a pivot, and the column is deleted from the
other rows without any cross-multiplication.  `rank`, `kernel_basis`,
`invert` and `in_span` all run through it, and `_kernel` takes sparse rows
directly, as `ybe.invariant_symmetric_basis` unpacks them from its packed
integer forms.  A division happens only when a result entry is formed.
Nothing here ever rounds.

Integer numerators.  A matrix m of exact values, or of `poly.Poly` entries,
is checked as the pair (d, d * m), d the lcm of its denominators, so that
d * m holds ints; `_cleared` is the one routine that scans entries for
denominators, and kernels scale each kind of term to a common denominator.
An `_Operand` is such a pair built once (`_operands`, kept by
`tensors.Tensor2`); the lists a kernel reads off it are kept on it, one per
builder (`_sparse_rows`, `_by_coordinate`) and scale factor (`_lists`).
`_values` and `_ratio` divide numerators back into values: an int when
exact, else a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import DimensionMismatch, SingularMatrix
from .poly import Poly

Scalar = int | Fraction
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]

def exact(x) -> Scalar:
    """Coerce a number (or 'p/q' string) to an exact scalar.  A float is
    refused: its binary fraction is almost never the number that was meant."""
    t = type(x)
    if t is int or t is Fraction and x.denominator != 1:
        return x
    if isinstance(x, float):
        raise ValueError(f"scalar: expected int, got {t.__name__}")
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def scalar_str(x: Scalar) -> str:
    if type(x) is int:  # not bool, which Fraction prints as 0 or 1
        return str(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def vec(xs) -> Vec:
    return tuple(exact(x) for x in xs)


def mat(rows) -> Mat:
    return _rectangular(tuple(vec(r) for r in rows))


def _rectangular(m: Mat) -> Mat:
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


class Frozen:
    """An immutable value.  Its fields, two or more, are the parameters of
    its own `__init__`, in order (`_fields`, read off the code object, so no
    source is generated or executed); `__init__` writes them into the
    instance dict after coercing them.  Equality is field by field within
    one class, the hash is that of the field tuple (`_values`) and the repr
    lists the fields, as for a frozen dataclass.  Assignment and deletion
    raise AttributeError; derived data may still be kept in the instance
    dict (`functools.cached_property`).  A field may itself be such a
    property, drawn lazily on first read (`Tensor3.coeff` of a lazy
    tensor): equality, hash and repr read every field as an attribute, so
    they see it drawn."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _trusted(cls, *fields):
    """The Frozen class cls with fields, in `_fields` order, that are already
    exact and shaped: its coercing `__init__` is not run."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, fields, strict=True))
    return obj


def zero_vec(n: int) -> Vec:
    return (0,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Scalar, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vec_dot(u: Vec, v: Vec) -> Scalar:
    return sum(a * b for a, b in zip(u, v, strict=True))


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(vec_add(r, s) for r, s in zip(a, b, strict=True))


def mat_scale(c: Scalar, a: Mat) -> Mat:
    return tuple(vec_scale(c, r) for r in a)


def is_zero_mat(a: Mat) -> bool:
    return all(is_zero_vec(r) for r in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else a


def mat_vec(a: Mat, v: Vec) -> Vec:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch(f"matrix cols {len(a[0])} != vector len {len(v)}")
    out = []
    for row in a:
        acc = 0
        for c, x in zip(row, v):
            if c and x:
                acc += c * x
        out.append(acc)
    return tuple(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a b.  A right factor with no rows is read as 0x0, so a
    product over inner dimension 0 has len(a) empty rows."""
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"inner dims {len(a[0])} != {len(b)}")
    bt = transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def _entries(table) -> list[tuple]:
    """The nonzero entries (i, k, p, c) of a product table: table[i][k][p] = c."""
    return [(i, k, p, c) for i, row in enumerate(table) for k, v in enumerate(row)
            for p, c in enumerate(v) if c]


def _cleared(m) -> tuple[int, tuple]:
    """(d, d * m): d is the lcm of the denominators of the entries of the
    matrix m, so d * m holds ints, or polynomials where m does.  A matrix
    without Fraction entries is returned as it is, with d = 1; one with
    integral Fractions such as Fraction(2, 1) gets ints in their place.  An
    `_Operand` is cleared already and is returned as it is."""
    if type(m) is _Operand:
        return m
    dens = [x.denominator for row in m for x in row if type(x) is Fraction]
    if not dens:
        return 1, m
    d = lcm(*dens)
    return d, tuple(tuple(x.numerator * (d // x.denominator) if type(x) is Fraction
                          else x * d for x in row) for row in m)


class _Operand(tuple):
    """(d, d * m) for a matrix m, as `_cleared` returns it, kept by what it
    derives from, with the lists kernels read off d * m kept in `lists`."""

    def __new__(cls, d: int, m):
        op = super().__new__(cls, (d, m))
        op.lists = {}
        return op


def _operands(c, ct) -> tuple:
    """c, ct, -c and -ct as `_Operand`s over one denominator: the columns of
    a pair of maps from a module to the algebra and of their negatives."""
    d, rows = _cleared((*c, *ct))
    c, ct = rows[:len(c)], rows[len(c):]
    return tuple(_Operand(d, m) for m in (c, ct, mat_scale(-1, c), mat_scale(-1, ct)))


def _minus(x: tuple, y: tuple) -> _Operand:
    """x - y for matrices given as (d, d * x) pairs, over the lcm of the denominators."""
    (dx, x), (dy, y) = x, y
    d = lcm(dx, dy)
    return _Operand(d, tuple(tuple(d // dx * u - d // dy * w for u, w in zip(rx, ry))
                             for rx, ry in zip(x, y)))


def _sparse_rows(m, f: int = 1) -> list[list[tuple]]:
    """The nonzero entries of each row of m as (j, f * m[.][j]), unscaled when f is 1."""
    if f != 1:
        return [[(j, x * f) for j, x in enumerate(row) if x] for row in m]
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _by_coordinate(cols: Mat, f: int = 1) -> list[list[tuple]]:
    """For each algebra coordinate k, the pairs (i, f * cols[i][k]) with a nonzero value."""
    return _sparse_rows(zip(*cols), f)


def _lists(x: tuple, build, f: int) -> list[list[tuple]]:
    """build(cols, f) for x = (d, cols), kept on x when it is an `_Operand`."""
    if type(x) is not _Operand:
        return build(x[1], f)
    if (build, f) not in x.lists:
        x.lists[build, f] = build(x[1], f)
    return x.lists[build, f]


def _ratio(a: int, b: int) -> Scalar:
    q, rem = divmod(a, b)
    return Fraction(a, b) if rem else q


def _values(num: list, den: int) -> list:
    """Each entry of num divided by den: an int when exact, else a Fraction;
    a Poly by coefficient.  Zero entries are kept as they are."""
    if den == 1:
        return num
    return [x and (Poly({m: _ratio(c, den) for m, c in x.items()}) if isinstance(x, Poly)
                   else _ratio(x, den)) for x in num]


def _integer_rows(m, ncols: int) -> list[dict[int, int]]:
    """The rows of m as sparse integer rows {column: entry}, each cleared of
    its own denominators (`_cleared`), so they span the same space.  Every
    row must have ncols entries."""
    out = []
    for row in m:
        if len(row) != ncols:
            raise DimensionMismatch(f"row of length {len(row)}, expected {ncols}")
        _, (row,) = _cleared((row,))
        out.append({c: x for c, x in enumerate(row) if x})
    return out


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g < 2 else {c: x // g for c, x in row.items()}


def _cancel(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """row minus a multiple of prow that clears column c (c is in prow),
    scaled by an integer to stay integral and then made primitive."""
    p, a = prow[c], row[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {k: p * x for k, x in row.items()}
    for k, y in prow.items():
        x = out.pop(k, 0) - a * y
        if x:
            out[k] = x
    return _primitive(out)


def _echelon(rows: list[dict[int, int]]) -> tuple[list[dict[int, int]], list[int]]:
    """Gauss-Jordan elimination of sparse integer rows {column: entry}, no
    entry zero, without division.  The input rows are not modified.

    Returns (pivot rows, pivots): the pivot row of column pivots[i] is
    rows[i], pivots increase, and each pivot row is zero in every other
    pivot column; rows that reduce to zero are dropped.  Every row is made
    primitive (its entries have gcd 1) on entry and after each step, so
    cross-multiplying does not make the entries grow step after step.
    Row i divided by its entry at pivots[i] is row i of the reduced row
    echelon form over the rationals, which is unique.

    One-entry rows are peeled first: a column that some one-entry row holds
    is a pivot with row {column: 1}, and it is deleted from every other row,
    which needs no cross-multiplication; rows left empty are dropped.  The
    rows that are left hold no peeled column, so eliminating them and
    merging both sets of pivots in column order gives the same form.

    The rest is taken column by column, left to right.  The pivot of a
    column is the sparsest row holding it that is not yet a pivot row, the
    lowest index on a tie, and an index from each column to the rows
    holding it means a step visits only those rows.  The index is not
    pruned when a row loses a column; such stale entries are skipped.
    """
    peeled = {c for row in rows if len(row) == 1 for c in row}
    if peeled:
        rows = [{c: x for c, x in row.items() if c not in peeled}
                for row in rows if len(row) > 1]
    rows = [_primitive(row) for row in rows if row]
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    order: list[int] = []
    pivots: list[int] = []
    done: set[int] = set()
    for c in sorted(holders):
        hold = [i for i in holders[c] if c in rows[i]]
        live = [(len(rows[i]), i) for i in hold if i not in done]
        if not live:
            continue
        pr = min(live)[1]
        prow = rows[pr]
        for i in hold:
            if i != pr:
                row = rows[i]
                rows[i] = new = _cancel(row, prow, c)
                for k in new:
                    if k not in row:
                        holders[k].add(i)
        done.add(pr)
        order.append(pr)
        pivots.append(c)
    found = {c: rows[i] for c, i in zip(pivots, order)}
    found.update((c, {c: 1}) for c in peeled)
    pivots = sorted(found)
    return [found[c] for c in pivots], pivots


def _kernel(rows: list[dict[int, int]], ncols: int) -> list[Vec]:
    """Basis of the null space of sparse integer rows over ncols columns:
    one vector per free column, read off the reduced row echelon form."""
    rows, pivots = _echelon(rows)
    basis = {c: [0] * ncols for c in sorted(set(range(ncols)).difference(pivots))}
    for c, v in basis.items():
        v[c] = 1
    for row, pc in zip(rows, pivots):
        p = row[pc]
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = _ratio(-x, p)
    return [tuple(v) for v in basis.values()]


def rank(m: Mat) -> int:
    return len(_echelon(_integer_rows(m, len(m[0]) if m else 0))[1])


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the null space of m; empty iff m is injective."""
    if not m:
        return []
    return _kernel(_integer_rows(m, len(m[0])), len(m[0]))


def invert(m: Mat) -> Mat:
    """Exact inverse of a square matrix."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("invert requires a square matrix")
    aug = [(*row, *(int(i == j) for j in range(n))) for i, row in enumerate(m)]
    rows, pivots = _echelon(_integer_rows(aug, 2 * n))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return tuple(tuple(_ratio(row.get(j, 0), row[i]) for j in range(n, 2 * n))
                 for i, row in enumerate(rows))


def in_span(basis: list[Vec], v: Vec) -> bool:
    """Whether v lies in the span of the given vectors: whether it leaves
    their rank as it is."""
    if not basis:
        return not any(v)
    return rank((*basis, v)) == rank(basis)
