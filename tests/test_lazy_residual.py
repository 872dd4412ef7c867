"""The residual Tensor3 is lazy: `nhacybe_residual` and `opposite_residual`
return a tensor that draws its planes from the kernel as they are read.  It
is compared with the eager Tensor3 of the slotwise references
(`tests/helpers.slotwise_*`) in every way a caller can read it, the draws
are counted, and `ybe check` prints what the references give.  The eager
tensors of `aybp_residual` are read the same ways."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

import ybekit.ybe as ybe_module
from ybekit import (
    Tensor2,
    YbeInstance,
    aybp_residual,
    nhacybe_residual,
    opposite_residual,
    t2_zero,
    unit_square,
)
from ybekit.algebras import matrix_algebra
from ybekit.cli import run
from ybekit import io_json
from ybekit.linalg import scalar_str
from ybekit.tensors import Tensor3, _lazy_tensor3

from helpers import (
    ALL_NAMES,
    alg,
    rng,
    slotwise_opposite_residual,
    slotwise_pair_residuals,
    slotwise_residual,
    typed_tree,
)

MUS = (0, 1, Fraction(-1, 2))
ALGEBRAS = (*ALL_NAMES, "M3", "M4")  # the catalog holds M2


def _algebra(name):
    return matrix_algebra(int(name[1])) if name in ("M3", "M4") else alg(name)


def _tensors(a, mu, seed):
    """A seeded dense integer tensor, a half-integer one, and mu (1 (x) 1),
    which solves the equation at mu."""
    r, n = rng(seed), a.dim
    dense = Tensor2(n, tuple(tuple(r.choice((-2, -1, 1, 2)) for _ in range(n))
                             for _ in range(n)))
    half = Tensor2(n, tuple(tuple(Fraction(r.choice((-3, -1, 1, 3)), 2) for _ in range(n))
                            for _ in range(n)))
    return dense, half, unit_square(a).scale(mu) if mu != 0 else t2_zero(n)


def _residuals(a, mu, t):
    """(make, want) for each residual of t: make builds the lazy tensor
    afresh, want is the eager reference."""
    i = YbeInstance(a, mu)
    s = t.sub(unit_square(a).scale(mu)) if mu != 0 else t
    pair = slotwise_pair_residuals(a, t, s)
    return [(lambda: nhacybe_residual(i, t), slotwise_residual(i, t)),
            (lambda: opposite_residual(i, t), slotwise_opposite_residual(i, t)),
            (lambda: aybp_residual(a, t, s)[0], pair[0]),
            (lambda: aybp_residual(a, t, s)[1], pair[1])]


def _assert_same(make, want):
    # every reading on a tensor of its own, so that each starts undrawn
    assert make().is_zero() == want.is_zero()
    assert typed_tree(make().first_nonzero()) == typed_tree(want.first_nonzero())
    assert make() == want and want == make()
    assert hash(make()) == hash(want)
    assert repr(make()) == repr(want)
    assert typed_tree(make().coeff) == typed_tree(want.coeff)
    # and all of them on one tensor, after a partial walk
    got = make()
    assert got.is_zero() == want.is_zero()
    assert typed_tree(got.first_nonzero()) == typed_tree(want.first_nonzero())
    assert typed_tree(got.coeff) == typed_tree(want.coeff)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert typed_tree(got.first_nonzero()) == typed_tree(want.first_nonzero())
    for other in (got.swap_outer(), got.add(want), got.sub(want), got.scale(Fraction(2, 3))):
        assert type(other) is Tensor3 and "coeff" in vars(other)
    assert got.swap_outer() == want.swap_outer() and got.sub(want).is_zero()


@pytest.mark.parametrize("mu", MUS, ids=str)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_lazy_residuals_read_as_the_slotwise_references(name, mu):
    a = _algebra(name)
    if mu != 0 and not a.is_unital:
        pytest.skip("the mu-term needs a unit")
    seen = set()
    for t in _tensors(a, mu, 2500 + a.dim):
        for make, want in _residuals(a, mu, t):
            _assert_same(make, want)
            seen.add(want.is_zero())
    assert seen == {False, True}


@pytest.fixture
def drawn(monkeypatch):
    """The planes drawn from `ybe._residual_blocks`, in order of drawing."""
    out, blocks = [], ybe_module._residual_blocks

    def spy(*args, **kwargs):
        planes, den = blocks(*args, **kwargs)

        def counted():
            for plane in planes:
                out.append(plane)
                yield plane
        return counted(), den
    monkeypatch.setattr(ybe_module, "_residual_blocks", spy)
    return out


@pytest.mark.parametrize("opposite", [False, True])
def test_a_failing_verdict_and_witness_draw_one_plane(drawn, opposite):
    a = matrix_algebra(3)
    i = YbeInstance(a, 1)
    t = _tensors(a, 1, 7)[0]
    want = (slotwise_opposite_residual if opposite else slotwise_residual)(i, t)
    assert want.first_nonzero()[0] == 0
    res = (opposite_residual if opposite else nhacybe_residual)(i, t)
    assert drawn == []
    assert not res.is_zero()
    assert typed_tree(res.first_nonzero()) == typed_tree(want.first_nonzero())
    assert len(drawn) == 1
    # coeff draws the other planes once each, and nothing reads the kernel again
    assert typed_tree(res.coeff) == typed_tree(want.coeff)
    assert len(drawn) == a.dim
    assert res == want and hash(res) == hash(want) and not res.is_zero()
    assert len(drawn) == a.dim


def test_a_solution_draws_every_plane_once(drawn):
    a = matrix_algebra(3)
    i = YbeInstance(a, Fraction(-1, 2))
    res = nhacybe_residual(i, unit_square(a).scale(Fraction(-1, 2)))
    assert res.is_zero() and res.first_nonzero() is None
    assert len(drawn) == a.dim
    assert res.coeff == ((((0,) * a.dim,) * a.dim,) * a.dim)
    assert len(drawn) == a.dim


def test_the_walk_stops_at_the_first_nonzero_plane(drawn):
    # r = E21 (x) E12 on M2: the residual is -r23 r12 = -E21 (x) E22 (x) E12,
    # all in plane 2 (E21)
    a = matrix_algebra(2)
    t = Tensor2(4, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)))
    res = nhacybe_residual(YbeInstance(a, 0), t)
    assert res.first_nonzero() == (2, 3, 1, -1) and len(drawn) == 3
    assert res.first_nonzero() == slotwise_residual(YbeInstance(a, 0), t).first_nonzero()
    assert len(drawn) == 3


def test_interleaved_walks_draw_each_plane_once():
    planes = [((i, 0), (0, 0)) for i in range(3)]
    pulled = []

    def source():
        for plane in planes:
            pulled.append(plane)
            yield plane
    t = _lazy_tensor3(2, source())
    first, second = t._planes(), t._planes()
    assert next(first) == planes[0] and next(second) == planes[0]
    assert next(second) == planes[1] and next(first) == planes[1]
    assert [*first] == planes[2:] and [*second] == planes[2:]
    assert pulled == planes and t.coeff == tuple(planes)
    assert [*t._planes()] == planes and pulled == planes


def test_a_lazy_residual_pickles_and_copies_as_its_value():
    a = matrix_algebra(2)
    i = YbeInstance(a, Fraction(-1, 2))
    t = _tensors(a, Fraction(-1, 2), 11)[1]
    want = slotwise_residual(i, t)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        got = nhacybe_residual(i, t)
        got.is_zero()  # part drawn
        assert typed_tree(clone(got)) == typed_tree(want) and got == want


def _check_stdout(want, check, mu, fmt):
    """What `ybe check` prints for the reference residual want."""
    w = want.first_nonzero()
    witness = None if w is None else {"slot": list(w[:3]), "value": scalar_str(w[3])}
    if fmt == "text":
        return (f"FAIL {check}\n  witness: {io_json.dumps(witness)}\n" if witness
                else f"PASS {check}\n")
    out = {"check": check, "details": {"mu": scalar_str(mu)}, "passed": w is None}
    if witness:
        out["witness"] = witness
    return io_json.dumps(out) + "\n"


@pytest.mark.parametrize("name", ["M2", "M3", "M4", "A2", "B1", "B4"])
def test_ybe_check_prints_the_reference_residual(name, tmp_path, capsys):
    a = _algebra(name)
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(io_json.encode_algebra(a)), encoding="utf-8")
    r_path = tmp_path / "r.json"
    for mu in MUS:
        i = YbeInstance(a, mu)
        for t in _tensors(a, mu, 2600 + a.dim):
            r_path.write_text(json.dumps(io_json.encode_tensor2(t)), encoding="utf-8")
            for opposite, check, ref in ((False, "tensor-equation", slotwise_residual),
                                         (True, "opposite-equation", slotwise_opposite_residual)):
                want = ref(i, t)
                for fmt in ("json", "text"):
                    argv = ["ybe", "check", "--algebra", str(a_path), "--r", str(r_path),
                            "--mu", scalar_str(mu), "--report", fmt]
                    code = run(argv + ["--opposite"] * opposite)
                    assert code == (0 if want.is_zero() else 1)
                    assert capsys.readouterr() == (_check_stdout(want, check, mu, fmt), "")
