"""Seeded random generators for the property suites.

Coefficients are drawn uniformly from {-2, -1, 0, 1, 2} so products stay in
small-integer arithmetic; every battery records its seed.
"""

from __future__ import annotations

import random

from .linalg import HALF
from .tensors import Tensor2
from .ybe import YbeInstance, unit_square

COEFF_RANGE = (-2, -1, 0, 1, 2)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_tensor(r: random.Random, n: int) -> Tensor2:
    return Tensor2(n, tuple(tuple(r.choice(COEFF_RANGE) for _ in range(n))
                            for _ in range(n)))


def random_skew(r: random.Random, n: int) -> Tensor2:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = r.choice(COEFF_RANGE)
            rows[i][j] = c
            rows[j][i] = -c
    return Tensor2(n, tuple(tuple(row) for row in rows))


def random_matrix(r: random.Random, rows: int, cols: int):
    return tuple(tuple(r.choice(COEFF_RANGE) for _ in range(cols))
                 for _ in range(rows))


def random_symmetrized_invariant(r: random.Random, inst: YbeInstance,
                                 inv_basis: list[Tensor2]) -> Tensor2:
    """A tensor whose extended symmetrizer is a random element of the
    invariant space: skew + (s + mu * unit_square) / 2."""
    n = inst.algebra.dim
    out = random_skew(r, n)
    half_sum = unit_square(inst.algebra).scale(inst.mu) if inst.mu != 0 \
        else Tensor2(n, ((0,) * n,) * n)
    for b in inv_basis:
        c = r.choice(COEFF_RANGE)
        if c:
            half_sum = half_sum.add(b.scale(c))
    return out.add(half_sum.scale(HALF))


def random_unit_symmetrizer(r: random.Random, inst: YbeInstance) -> Tensor2:
    """A tensor with r + flip(r) = mu * unit_square (zero symmetrizer)."""
    return random_symmetrized_invariant(r, inst, [])
