"""Sparse polynomials over exact coefficients, {monomial: coefficient}, to run
the kernels over.  A monomial is the sorted tuple of its variable indices.  No
coefficient is zero, so a Poly is false exactly when it is zero."""


class Poly(dict):
    def __add__(self, other):
        out = Poly(self)
        if not isinstance(other, Poly):
            if not other:
                return out
            other = {(): other}
        for m, c in other.items():
            c += out.pop(m, 0)
            if c:
                out[m] = c
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            out = Poly()
            if other:
                for m, c in self.items():
                    out[m] = c * other
            return out
        out = {}
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = m1 + m2 if m1[-1:] <= m2[:1] else tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return self * -1 + other


def variables(n: int) -> tuple:
    """The n x n matrix whose entry (i, j) is the variable i * n + j."""
    return tuple(tuple(Poly({(i * n + j,): 1}) for j in range(n)) for i in range(n))
