from fractions import Fraction

import pytest

from ybekit import (
    UnknownName,
    YbeInstance,
    ZeroMu,
    check_algebra,
    extended_symmetrizer,
    nhacybe_residual,
    residual_is_zero,
    rota_baxter_residual,
    t2_from_entries,
    unit_square,
)
from ybekit.catalog import (
    catalog_algebra,
    catalog_names,
    catalog_rb_tables,
    catalog_solutions,
    verify_catalog,
)

from helpers import ALL_NAMES, alg, entry, inst


def test_names_and_errors():
    assert catalog_names() == ALL_NAMES
    with pytest.raises(UnknownName):
        catalog_algebra("Z9")
    with pytest.raises(ZeroMu):
        catalog_solutions("A2", 0)
    with pytest.raises(UnknownName):
        catalog_rb_tables("B5")


def test_a2_shape():
    e = entry("A2")
    assert e.algebra.dim == 2
    assert e.algebra.unit == (1, 1)
    assert len(e.families) == 8
    assert len(catalog_solutions("A2", 1)) == 8
    assert len(e.augmentations) == 2


def test_a2_solution_values():
    # transcription check at mu = 2 for two families
    sols = {f.name: f.tensor(2) for f in entry("A2").families}
    assert sols["r1"] == t2_from_entries(2, {(0, 0): 2, (1, 1): 2, (0, 1): 2})
    assert sols["r4"] == t2_from_entries(2, {(1, 0): 2})


def test_a2_operator_tables_at_mu_one():
    # the eight stated operator images at mu = 1
    tables = {name: tuple(zip(*q.matrix))
              for name, q, _ in catalog_rb_tables("A2")}
    assert tables["r1"] == ((1, 1), (0, 1))        # e1 -> e1+e2, e2 -> e2
    assert tables["r2"] == ((1, 0), (1, 1))
    assert tables["r3"] == ((0, 1), (0, 0))
    assert tables["r4"] == ((0, 0), (1, 0))
    assert tables["r5"] == ((1, 1), (0, 0))
    assert tables["r6"] == ((1, 0), (-1, 0))
    assert tables["r7"] == ((0, 1), (0, -1))
    assert tables["r8"] == ((0, 0), (-1, -1))


def test_a2_weights():
    signs = {f.name: f.weight_sign for f in entry("A2").families}
    assert {n for n, s in signs.items() if s == -1} == {"r1", "r2", "r5", "r6"}
    assert {n for n, s in signs.items() if s == 1} == {"r3", "r4", "r7", "r8"}


def test_a2_symmetrizer_identities():
    # r1+flip(r1) = r2+flip(r2) = r1+r2 and the four stated phi offsets
    e = entry("A2")
    i1 = inst("A2", 1)
    one = unit_square(e.algebra)
    fam = {f.name: f.tensor(1) for f in e.families}
    phi1 = e.forms["B1"].phi
    phi2 = e.forms["B2"].phi
    for a, b, phi, sign in (("r1", "r2", phi1, 1), ("r3", "r4", phi1, -1),
                            ("r5", "r6", phi2, 1), ("r7", "r8", phi2, -1)):
        lhs = fam[a].add(fam[a].flip())
        assert lhs == fam[b].add(fam[b].flip())
        assert lhs == fam[a].add(fam[b])
        assert lhs == phi.scale(sign).add(one)
        assert extended_symmetrizer(i1, fam[a]) == phi.scale(sign)


def test_sigma_pairs():
    for name in ("A2", "B1", "B2"):
        e = entry(name)
        fam = {f.name: f for f in e.families}
        assert e.sigma_pairs
        for left, right in e.sigma_pairs:
            assert fam[right].tensor(1) == fam[left].tensor(1).flip()


def test_b1_counts_and_offsets():
    e = entry("B1")
    assert len(e.families) == 48
    fam = {f.name: f for f in e.families}
    base = {k: fam[f"r{k}"].tensor(1) for k in range(1, 7)}
    phi1 = e.forms["phi1"].phi
    e33 = t2_from_entries(3, {(2, 2): 1})
    e11e22 = t2_from_entries(3, {(0, 0): 1, (1, 1): 1})
    e22 = t2_from_entries(3, {(1, 1): 1})
    e11e33 = t2_from_entries(3, {(0, 0): 1, (2, 2): 1})
    e11 = t2_from_entries(3, {(0, 0): 1})
    e22e33 = t2_from_entries(3, {(1, 1): 1, (2, 2): 1})
    offsets = [phi1, e33, e11e22, e22, e11e33, e11, e22e33]
    for g, off in enumerate(offsets, start=1):
        for k in range(1, 7):
            assert fam[f"r{6 * g + k}"].tensor(1) == base[k].add(off)


def test_b1_base_solutions():
    # r1 at mu = 2, as stated
    assert entry("B1").families[0].tensor(2) \
        == t2_from_entries(3, {(1, 0): 2, (2, 0): 2, (2, 1): 2})


def test_b1_sample_operator_tables():
    tables = {name: tuple(zip(*q.matrix))
              for name, q, _ in catalog_rb_tables("B1")}
    assert tables["r1"] == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert tables["r13"] == ((0, 0, 0), (1, 0, 0), (-1, -1, -1))
    assert tables["r26"] == ((0, 1, 1), (0, -1, -1), (0, 0, 0))
    assert tables["r38"] == ((-1, -1, -1), (0, 0, 1), (0, 0, 0))
    assert tables["r48"] == ((0, -1, 0), (0, 1, 0), (1, 1, 1))


def test_b1_group_weights_and_forms():
    e = entry("B1")
    for g, f in enumerate(e.families):
        group = g // 6
        assert f.weight_sign == (1 if group % 2 == 0 else -1)
        assert f.form == f"phi{group // 2 + 1}"


def test_b2_is_embedded_a2():
    e = entry("B2")
    a2 = entry("A2")
    for fb, fa in zip(e.families, a2.families):
        tb, ta = fb.tensor(1), fa.tensor(1)
        assert all(tb.coeff[i][j] == ta.coeff[i][j]
                   for i in range(2) for j in range(2))
        assert all(tb.coeff[i][2] == 0 and tb.coeff[2][i] == 0
                   for i in range(3))
        # table extended by zero on the third basis vector
        assert tuple(zip(*fb.q))[2] == (0, 0, 0)
    i1 = inst("B2", 1)
    for f in e.families:
        assert nhacybe_residual(i1, f.tensor(1)).is_zero()
        assert residual_is_zero(
            rota_baxter_residual(e.algebra, f.q_map(1), f.weight_sign))


def test_m2_family():
    e = entry("M2")
    f = e.families[0]
    r0 = f.tensor(-1)
    assert r0 == t2_from_entries(4, {(1, 2): 1, (0, 3): -1})
    i = inst("M2", -1)
    assert nhacybe_residual(i, r0).is_zero()
    # symmetrizer at mu = -1 equals the trace tensor
    assert extended_symmetrizer(i, r0) == e.forms["trace"].phi


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_entries_are_valid(name):
    e = entry(name)
    assert check_algebra(e.algebra).passed
    for mu in (1, Fraction(-3, 5)):
        i = YbeInstance(e.algebra, mu)
        for f in e.families:
            assert nhacybe_residual(i, f.tensor(mu)).is_zero()


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "B3", "B4", "B5", "M2"])
def test_verify_catalog_passes(name):
    assert verify_catalog(name, [1]).passed


def test_verify_catalog_b1_reports_grid_total():
    rep = verify_catalog("B1", [1])
    assert rep.passed
    assert rep.details["grid_nonzero"] == 73
    assert rep.details["reported_nonzero_total"] == 73


def test_verify_catalog_m2_checks_grid_count():
    rep = verify_catalog("M2", [1, Fraction(-1, 2)])
    counts = [s for s in rep.details["subchecks"]
              if s["check"].startswith("M2:grid-nonzero-count@")]
    assert [s["passed"] for s in counts] == [True, True]
    assert all(s["details"]["grid_nonzero"] == 51 for s in counts)


def test_verify_catalog_b1_grid_total_follows_first_mu():
    assert verify_catalog("B1", [2, 1]).details["grid_nonzero"] == 73
    assert verify_catalog("B1", [0, 1]).details["grid_nonzero"] == 0
