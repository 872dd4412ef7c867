"""JSON encoding of every value the CLI reads or writes.

Rationals are serialized as "p/q" strings, or "p" when the denominator is
one.  Dumps are byte-deterministic: keys sorted, compact separators.
Decoding is strict: a scalar is a JSON integer or a string, never a float or
a boolean, and every value of the wrong JSON type or missing field raises
ValueError.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebras import Algebra, Augmentation, BilinearForm, Bimodule, _basis_names
from .dendriform import Dendriform
from .errors import DimensionMismatch
from .linalg import Scalar, _trusted, exact, scalar_str
from .operators import LinearMap
from .tensors import Tensor2


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checked(x, kind, what):
    if not isinstance(x, kind) or isinstance(x, bool):
        raise ValueError(f"{what}: expected {kind.__name__}, got {type(x).__name__}")
    return x


class _Object(dict):
    """A decoded JSON object: reading a field it lacks raises ValueError
    naming the object and the field."""

    def __missing__(self, key):
        raise ValueError(f"{self.what}: missing field {key!r}")


def _object(d, what) -> _Object:
    obj = _Object(_checked(d, dict, what))
    obj.what = what
    return obj


def parse_scalar(s) -> Scalar:
    """An exact scalar from an integer or a string such as "p/q", never "1e9".

    A plain ASCII integer literal, optionally negative, goes through int();
    every other string goes through Fraction, which gives the same value on
    those and decides everything else."""
    if not isinstance(s, str):
        return _checked(s, int, "scalar")
    digits = s[1:] if s[:1] == "-" else s
    if digits.isdigit() and digits.isascii():
        return int(s)
    if "e" in s or "E" in s:
        raise ValueError(f"scalar {s!r}: no exponents; write an integer, p/q or a decimal")
    try:
        return exact(Fraction(s))
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None


def _dim_in(d) -> int:
    return _checked(d["dim"], int, "dim")


def _vec_out(v):
    return [scalar_str(x) for x in v]


class _Literals(dict):
    """The value of each string or integer literal already parsed in one
    JSON document, so that each distinct literal is parsed once."""

    def __missing__(self, s):
        self[s] = x = parse_scalar(s)
        return x


def _vec_in(v, lits: _Literals):
    return tuple([lits[x] if type(x) is str or type(x) is int else parse_scalar(x)
                  for x in _checked(v, list, "vector")])


def _mat_out(m):
    return [_vec_out(r) for r in m]


def _mat_in(m, lits: _Literals):
    return tuple([_vec_in(r, lits) for r in _checked(m, list, "matrix")])


def _table_in(t, lits: _Literals):
    return tuple([_mat_in(m, lits) for m in _checked(t, list, "table")])


def _built(cls, *fields):
    """cls from fields parsed here: shapes checked, nothing coerced twice."""
    obj = _trusted(cls, *fields)
    obj._check()
    return obj


def encode_tensor2(t: Tensor2) -> dict:
    return {"dim": t.dim, "coeff": _mat_out(t.coeff)}


def decode_tensor2(d: dict) -> Tensor2:
    d = _object(d, "tensor")
    return _built(Tensor2, _dim_in(d), _mat_in(d["coeff"], _Literals()))


def encode_algebra(a: Algebra) -> dict:
    return {
        "dim": a.dim,
        "basis": list(a.basis),
        "unit": _vec_out(a.unit) if a.unit is not None else None,
        "sc": [[_vec_out(v) for v in row] for row in a.sc],
    }


def decode_algebra(d: dict) -> Algebra:
    d = _object(d, "algebra")
    lits = _Literals()
    dim, sc = _dim_in(d), _table_in(d["sc"], lits)
    unit = _vec_in(d["unit"], lits) if d.get("unit") is not None else None
    basis = d.get("basis")
    if basis is not None:
        basis = [_checked(b, str, "basis name") for b in _checked(basis, list, "basis")]
    # Default names only once sc has dim rows: a bare "dim" could ask for 10**9.
    names = _basis_names(dim, basis) if len(sc) == dim else ()
    return _built(Algebra, dim, names, sc, unit)


def encode_linear_map(m: LinearMap) -> dict:
    return {"rows": m.rows, "cols": m.cols, "matrix": _mat_out(m.matrix),
            "domain": m.domain}


def decode_linear_map(d: dict) -> LinearMap:
    d = _object(d, "linear map")
    matrix = _mat_in(d["matrix"], _Literals())
    if "rows" in d and (len(matrix) != _checked(d["rows"], int, "rows") or
                        (matrix and len(matrix[0]) != _checked(d["cols"], int, "cols"))):
        raise DimensionMismatch("matrix shape disagrees with rows/cols")
    return _built(LinearMap, matrix, d.get("domain", "primal"))


# The largest module dimension that no action matrix backs (a module over the
# zero-dimensional algebra): a few bytes must not ask for a module whose
# semi-direct product has billions of structure constants.
_MAX_BARE_DIM = 64


def decode_bimodule(d: dict, algebra: Algebra) -> Bimodule:
    """A bimodule from its action matrices.  Its dimension is that of the
    matrices; the field "dim" must agree with them, and gives the dimension
    when there are none."""
    d = _object(d, "bimodule")
    lits = _Literals()
    left = _table_in(d["left"], lits)
    if left:
        dim = len(left[0])
        if "dim" in d and _dim_in(d) != dim:
            raise DimensionMismatch("bimodule dim disagrees with its action matrices")
    else:
        dim = _dim_in(d)
        if not 0 <= dim <= _MAX_BARE_DIM:
            raise DimensionMismatch(f"bimodule dim {dim} is not between 0 and {_MAX_BARE_DIM}")
    return _built(Bimodule, algebra, dim, left, _table_in(d["right"], lits))


def encode_form(b: BilinearForm) -> dict:
    return {"gram": _mat_out(b.gram)}


def decode_form(d: dict, algebra: Algebra) -> BilinearForm:
    return _built(BilinearForm, algebra, _mat_in(_object(d, "form")["gram"], _Literals()))


def encode_augmentation(a: Augmentation) -> dict:
    return {"eps": _vec_out(a.eps)}


def decode_augmentation(d: dict, algebra: Algebra) -> Augmentation:
    return _built(Augmentation, algebra, _vec_in(_object(d, "augmentation")["eps"], _Literals()))


def decode_dendriform(d: dict) -> Dendriform:
    d = _object(d, "dendriform")
    lits = _Literals()
    return _built(Dendriform, _dim_in(d), _table_in(d["prec"], lits), _table_in(d["succ"], lits))
