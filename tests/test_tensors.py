import pytest

from ybekit import DimensionMismatch, Tensor2, outer, t2_basis, t2_from_entries, t2_zero
from ybekit.tensors import Tensor3

from helpers import random_tensor, rng, t3_zero


def test_flip_basis_tensor():
    assert t2_basis(2, 0, 1).flip() == t2_basis(2, 1, 0)


def test_flip_fixes_symmetric():
    s = t2_from_entries(2, {(0, 0): 2, (0, 1): 3, (1, 0): 3})
    assert s.flip() == s
    assert s.is_symmetric()


def test_flip_involution_and_linearity():
    r = rng(101)
    for _ in range(25):
        a = random_tensor(r, 3)
        b = random_tensor(r, 3)
        assert a.flip().flip() == a
        assert a.add(b.scale(2)).flip() == a.flip().add(b.flip().scale(2))


def test_add_sub_scale():
    a = t2_basis(2, 0, 0)
    assert a.add(a).coeff == ((2, 0), (0, 0))
    assert a.sub(a).is_zero()
    assert a.scale(0) == t2_zero(2)


def test_outer():
    t = outer((1, 2), (3, 4))
    assert t.coeff == ((3, 4), (6, 8))


def test_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        Tensor2(2, ((1, 0),))
    with pytest.raises(DimensionMismatch):
        t2_basis(2, 0, 0).add(t2_basis(3, 0, 0))


def test_tensor3_swap_outer_involution():
    t = Tensor3(2, (((1, 2), (3, 4)), ((5, 6), (7, 8))))
    s = t.swap_outer()
    assert s.coeff[0][1][1] == t.coeff[1][1][0]
    assert s.swap_outer() == t


def test_tensor3_zero_and_witness():
    z = t3_zero(2)
    assert z.is_zero() and z.first_nonzero() is None
    t = Tensor3(2, (((0, 0), (0, 1)), ((0, 0), (0, 0))))
    assert t.first_nonzero() == (0, 1, 1, 1)
