"""Shared fixtures-in-spirit for the test suite: catalog shortcuts and the
frozen example tensors the tests reuse."""

from itertools import product

from ybekit import (
    LinearMap,
    Tensor2,
    YbeInstance,
    embed,
    nhacybe_residual,
    t2_from_entries,
    triple_mul,
)
from ybekit.catalog import catalog_algebra

ALL_NAMES = ("A1", "A2", "B1", "B2", "B3", "B4", "B5", "M2")

# A nonzero skew solution of the mu=0 equation on the 2x2 matrix algebra,
# found by exhaustive search over skew tensors with entries in {-1, 0, 1}:
# E12 (x) E11 - E11 (x) E12.
M2_SKEW = Tensor2(4, ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


def entry(name):
    return catalog_algebra(name)


def alg(name):
    return catalog_algebra(name).algebra


def inst(name, mu):
    return YbeInstance(alg(name), mu)


def a2_solution(idx, mu=1):
    return catalog_algebra("A2").families[idx - 1].tensor(mu)


def basis_tensor(name, i, j):
    a = alg(name)
    return t2_from_entries(a.dim, {(i, j): 1})


def zero_map(rows, cols=None, domain="primal"):
    cols = rows if cols is None else cols
    return LinearMap(tuple((0,) * cols for _ in range(rows)), domain)


def _embedded(t, a):
    return tuple(embed(t, s, a) for s in (12, 13, 23))


def slotwise_residual(i, t):
    """The residual by its definition: embed r in three slot pairs and
    multiply in the triple tensor algebra."""
    a = i.algebra
    t12, t13, t23 = _embedded(t, a)
    return (triple_mul(t12, t13, a)
            .add(triple_mul(t13, t23, a))
            .sub(triple_mul(t23, t12, a))
            .sub(t13.scale(i.mu)))


def slotwise_opposite_residual(i, t):
    """r13 r12 + r23 r13 - r12 r23 - mu r13 by its definition."""
    a = i.algebra
    t12, t13, t23 = _embedded(t, a)
    return (triple_mul(t13, t12, a)
            .add(triple_mul(t23, t13, a))
            .sub(triple_mul(t12, t23, a))
            .sub(t13.scale(i.mu)))


def slotwise_pair_residuals(a, r, s):
    """r12 r13 - r23 r12 + r13 s23 and r12 s13 - s23 s12 + s13 s23 by
    their definitions."""
    r12, r13, r23 = _embedded(r, a)
    s12, s13, s23 = _embedded(s, a)
    return (triple_mul(r12, r13, a).sub(triple_mul(r23, r12, a)).add(triple_mul(r13, s23, a)),
            triple_mul(r12, s13, a).sub(triple_mul(s23, s12, a)).add(triple_mul(s13, s23, a)))


def brute_force_grid(i, values):
    """Reference for grid_enumerate: every grid tensor in row-major
    lexicographic order, kept when its residual vanishes."""
    n = i.algebra.dim
    out = []
    for combo in product(sorted(set(values)), repeat=n * n):
        t = Tensor2(n, tuple(tuple(combo[k * n:(k + 1) * n]) for k in range(n)))
        if nhacybe_residual(i, t).is_zero():
            out.append(t)
    return out
