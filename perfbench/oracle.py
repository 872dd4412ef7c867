"""Checks of the program's answers that do not go through the program.

Matrix algebras M_n act faithfully on V = Q^n, so a tensor in M_n (x) M_n is
an n^2 x n^2 matrix on V (x) V and the Yang-Baxter residual is a sum of
products of n^3 x n^3 matrices built by Kronecker embedding.  Matrices here
are sparse: a dict from row index to a dict from column index to value.
"""

from __future__ import annotations

from fractions import Fraction


def unit_vector(n: int) -> list[int]:
    """Coordinates of the identity of M_n on the row-major matrix-unit basis."""
    return [1 if i % (n + 1) == 0 else 0 for i in range(n * n)]


def _operator(n: int, coeff) -> dict:
    """The tensor sum r[ab][ce] E_ab (x) E_ce as an operator on V (x) V:
    E_ab (x) E_ce sends v_b (x) v_e to v_a (x) v_c."""
    op: dict = {}
    for a in range(n):
        for b in range(n):
            row = coeff[a * n + b]
            for c in range(n):
                for e in range(n):
                    x = row[c * n + e]
                    if x:
                        op.setdefault(a * n + c, {})[b * n + e] = x
    return op


def _embed(n: int, r: dict, slots: int) -> dict:
    """r acting on two tensor factors of V (x) V (x) V, identity on the third."""
    out: dict = {}
    for i, row in r.items():
        i1, i2 = divmod(i, n)
        for j, x in row.items():
            j1, j2 = divmod(j, n)
            for k in range(n):
                if slots == 12:
                    src, dst = (i1, i2, k), (j1, j2, k)
                elif slots == 13:
                    src, dst = (i1, k, i2), (j1, k, j2)
                else:
                    src, dst = (k, i1, i2), (k, j1, j2)
                out.setdefault((src[0] * n + src[1]) * n + src[2], {})[
                    (dst[0] * n + dst[1]) * n + dst[2]] = x
    return out


def _mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for i, row in x.items():
        acc: dict = {}
        for k, a in row.items():
            for j, b in y.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
        out[i] = acc
    return out


def _add_into(acc: dict, x: dict, scale) -> None:
    for i, row in x.items():
        target = acc.setdefault(i, {})
        for j, a in row.items():
            target[j] = target.get(j, 0) + scale * a


def matrix_residual(n: int, coeff, mu, opposite: bool = False) -> dict:
    """Residual of r12 r13 + r13 r23 - r23 r12 - mu r13 (or of the opposite
    equation r13 r12 + r23 r13 - r12 r23 - mu r13) for r on M_n, as a
    sparse operator on V (x) V (x) V; zero entries are dropped."""
    r = _operator(n, coeff)
    r12, r13, r23 = (_embed(n, r, s) for s in (12, 13, 23))
    if opposite:
        terms = ((r13, r12, 1), (r23, r13, 1), (r12, r23, -1))
    else:
        terms = ((r12, r13, 1), (r13, r23, 1), (r23, r12, -1))
    acc: dict = {}
    for x, y, sign in terms:
        _add_into(acc, _mul(x, y), sign)
    _add_into(acc, r13, -Fraction(mu))
    return {i: {j: a for j, a in row.items() if a}
            for i, row in acc.items() if any(row.values())}


def is_invariant(sc, s) -> bool:
    """Whether s in A (x) A satisfies (id (x) L(e_k) - R(e_k) (x) id) s = 0 for
    every basis vector e_k, with sc[i][j] the coordinates of e_i e_j:
    sum_j s[p][j] sc[k][j][q] == sum_i sc[i][k][p] s[i][q]."""
    d = len(sc)
    for k in range(d):
        for p in range(d):
            for q in range(d):
                lhs = sum(s[p][j] * sc[k][j][q] for j in range(d) if sc[k][j][q])
                rhs = sum(sc[i][k][p] * s[i][q] for i in range(d) if sc[i][k][p])
                if lhs != rhs:
                    return False
    return True


def symmetrizer(coeff, unit, mu) -> list[list]:
    """r + flip(r) - mu (1 (x) 1)."""
    d = len(coeff)
    mu = Fraction(mu)
    return [[coeff[i][j] + coeff[j][i] - mu * unit[i] * unit[j] for j in range(d)]
            for i in range(d)]
