"""Dense order-2 and order-3 tensors with exact rational coefficients.

A Tensor2 stores coeff[i][j] for e_i (x) e_j, a Tensor3 stores coeff[i][j][k]
for e_i (x) e_j (x) e_k, over a fixed ambient dimension.  A lazy Tensor3
(`_lazy_tensor3`, the residuals of `ybe`) draws its planes from a generator:
when it is built, up to and including the first nonzero plane, which is all
that its verdict and witness read, and the rest when `coeff` is first read.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DimensionMismatch
from .linalg import (
    Frozen,
    Mat,
    Scalar,
    _operands,
    _rectangular,
    exact,
    is_zero_mat,
    mat,
    transpose,
)


class Tensor2(Frozen):
    def __init__(self, dim: int, coeff: Mat):
        d = self.__dict__
        d["dim"], d["coeff"] = dim, coeff
        self.__post_init__()  # a method of its own: tracers count tensors there

    def __post_init__(self):
        self.__dict__["coeff"] = mat(self.coeff)
        self._check()

    def _check(self):
        c = _rectangular(self.coeff)
        if len(c) != self.dim or any(len(r) != self.dim for r in c):
            raise DimensionMismatch(f"coeff is not {self.dim}x{self.dim}")

    def flip(self) -> "Tensor2":
        return Tensor2(self.dim, transpose(self.coeff))

    def add(self, other: "Tensor2") -> "Tensor2":
        self._match(other)
        return Tensor2(self.dim, tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.coeff, other.coeff)))

    def sub(self, other: "Tensor2") -> "Tensor2":
        self._match(other)
        return Tensor2(self.dim, tuple(
            tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.coeff, other.coeff)))

    def scale(self, c: Scalar) -> "Tensor2":
        return Tensor2(self.dim, tuple(tuple(c * a for a in r) for r in self.coeff))

    def is_zero(self) -> bool:
        return is_zero_mat(self.coeff)

    def is_symmetric(self) -> bool:
        return self.coeff == transpose(self.coeff)

    def _match(self, other: "Tensor2"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"tensor dims {self.dim} != {other.dim}")

    @cached_property
    def _operands(self) -> tuple:
        """`linalg._operands` of C and C^t for the coefficients C, the columns
        of r# and r^t#: built once for every operator identity tested on r."""
        return _operands(self.coeff, transpose(self.coeff))


def t2_zero(n: int) -> Tensor2:
    return Tensor2(n, ((0,) * n,) * n)


def t2_basis(n: int, i: int, j: int) -> Tensor2:
    """The tensor e_i (x) e_j."""
    return Tensor2(n, tuple(
        tuple(1 if (p, q) == (i, j) else 0 for q in range(n)) for p in range(n)))


def t2_from_entries(n: int, entries: dict) -> Tensor2:
    """Tensor2 from a sparse {(i, j): coefficient} mapping."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in entries.items():
        rows[i][j] = exact(c)
    return Tensor2(n, tuple(tuple(r) for r in rows))


def outer(u, v) -> Tensor2:
    """The pure tensor u (x) v of two coordinate vectors."""
    if len(u) != len(v):
        raise DimensionMismatch("outer product needs equal lengths")
    return Tensor2(len(u), tuple(tuple(a * b for b in v) for a in u))


class Tensor3(Frozen):
    def __init__(self, dim: int, coeff: tuple):
        d = self.__dict__
        d["dim"], d["coeff"] = dim, coeff
        self.__post_init__()  # a method of its own: tracers count tensors there

    def __post_init__(self):
        n = self.dim
        c = tuple(mat(plane) for plane in self.coeff)
        if len(c) != n or any(len(p) != n or any(len(r) != n for r in p) for p in c):
            raise DimensionMismatch(f"coeff is not {n}x{n}x{n}")
        self.__dict__["coeff"] = c

    def add(self, other: "Tensor3") -> "Tensor3":
        self._match(other)
        return Tensor3(self.dim, tuple(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(p, q))
            for p, q in zip(self.coeff, other.coeff)))

    def sub(self, other: "Tensor3") -> "Tensor3":
        self._match(other)
        return Tensor3(self.dim, tuple(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(p, q))
            for p, q in zip(self.coeff, other.coeff)))

    def scale(self, c: Scalar) -> "Tensor3":
        return Tensor3(self.dim, tuple(
            tuple(tuple(c * a for a in r) for r in p) for p in self.coeff))

    def is_zero(self) -> bool:
        return self.first_nonzero() is None

    def swap_outer(self) -> "Tensor3":
        """Exchange the first and third tensor slots."""
        n = self.dim
        return Tensor3(n, tuple(
            tuple(tuple(self.coeff[s][q][p] for s in range(n)) for q in range(n))
            for p in range(n)))

    def first_nonzero(self):
        """(p, q, s, value) of the first nonzero entry, None for zero.  A lazy
        tensor reads only the planes it drew when it was built."""
        d = self.__dict__
        for p, plane in enumerate(d["_drawn"] if "_drawn" in d else self.coeff):
            for q, row in enumerate(plane):
                if any(row):
                    for s, a in enumerate(row):
                        if a:
                            return (p, q, s, a)
        return None

    def _match(self, other: "Tensor3"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"tensor dims {self.dim} != {other.dim}")

    def __reduce__(self):
        # a lazy tensor holds a generator, which can be neither pickled nor copied
        return Tensor3, (self.dim, self.coeff)

    @cached_property
    def coeff(self) -> tuple:
        """The planes of a lazy tensor (`_lazy_tensor3`): those drawn when it
        was built, then the rest, drawn on first read.  An eager tensor keeps
        coeff in its instance dict, which takes precedence over this
        property."""
        d = self.__dict__
        return (*d["_drawn"], *d["_rest"])


def _lazy_tensor3(n: int, planes) -> Tensor3:
    """The Tensor3 of dimension n whose planes come from the iterator planes:
    each an n x n tuple of row tuples of exact values, so nothing is coerced
    or checked again.  The planes up to and including the first nonzero one
    are drawn here, so `is_zero` and `first_nonzero` read only those; every
    other method reads `coeff`, which draws the rest."""
    drawn, rest = [], iter(planes)
    for plane in rest:
        drawn.append(plane)
        if any(map(any, plane)):
            break
    t = object.__new__(Tensor3)
    t.__dict__.update(dim=n, _drawn=drawn, _rest=rest)
    return t
