"""The value classes against frozen dataclasses with the same fields.

Each value class (`linalg.Frozen`) is compared with a twin that
`dataclasses.make_dataclass(..., frozen=True)` builds from the fields and
defaults the class had as a dataclass: construction, defaults, equality,
hashing, repr and immutability.  The twin stores its arguments as given,
so every argument here is already exact and shaped and the coercion of the
real class leaves it unchanged.
"""

import subprocess
import sys
from dataclasses import field, make_dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import ybekit
from helpers import HALF, alg, entry, inst, typed_tree, zero_map
from ybekit import (
    Algebra,
    Augmentation,
    BilinearForm,
    Bimodule,
    BimoduleAlgebra,
    CatalogEntry,
    CheckReport,
    Dendriform,
    FrobeniusStructure,
    LiftedOperator,
    LinearMap,
    SemidirectSolutions,
    SolutionFamily,
    Tensor2,
    Tensor3,
    UnitalDendriform,
    WeightOp,
    YbeInstance,
    adjoint_bimodule,
    dual_regular_bimodule,
    embed,
    lift_o_operator,
    semidirect_solutions,
    trace_form,
    unital_extension,
)
from ybekit.linalg import Frozen, _trusted, identity

# The dataclass fields of each class: a name, or (name, default field).
FIELDS = {
    Algebra: ("dim", "basis", "sc", "unit"),
    Bimodule: ("algebra", "dim", "left", "right"),
    BilinearForm: ("algebra", "gram"),
    Augmentation: ("algebra", "eps"),
    SolutionFamily: ("name", "coeff", "sbar", "form", "weight_sign", "q"),
    CatalogEntry: ("name", "algebra", "augmentations", "forms", "inv_dim", "inv_span",
                   "families", "sigma_pairs", "grid_nonzero", ("notes", field(default=()))),
    LiftedOperator: ("algebra", "hat", "source", "lam"),
    SemidirectSolutions: ("algebra", "r1", "r2", "s", "lam", "mu"),
    Dendriform: ("dim", "prec", "succ"),
    UnitalDendriform: ("plus", "algebra"),
    FrobeniusStructure: ("algebra", "form", "phi_sharp", "phi"),
    LinearMap: ("matrix", ("domain", field(default="primal"))),
    BimoduleAlgebra: ("bimodule", "product"),
    WeightOp: ("kind", ("lam", field(default=0)), ("table", field(default=None)),
               ("twist", field(default=None))),
    CheckReport: ("name", "passed", ("witness", field(default=None)),
                  ("details", field(default_factory=dict))),
    Tensor2: ("dim", "coeff"),
    Tensor3: ("dim", "coeff"),
    YbeInstance: ("algebra", "mu"),
}
CLASSES = list(FIELDS)


def names(cls):
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[cls])


def twin(cls):
    return make_dataclass(cls.__name__, [f if isinstance(f, str) else (f[0], object, f[1])
                                         for f in FIELDS[cls]], frozen=True)


TWINS = {cls: twin(cls) for cls in CLASSES}


def samples(cls):
    """Two instances of cls, built by the library."""
    a2, b1 = alg("A2"), alg("B1")
    zero = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    step = (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    if cls is Algebra:
        return a2, b1
    if cls is Bimodule:
        return adjoint_bimodule(a2), dual_regular_bimodule(b1)
    if cls is BilinearForm:
        return BilinearForm(a2, identity(2)), BilinearForm(a2, ((1, 0), (0, HALF)))
    if cls is Augmentation:
        return entry("A2").augmentations[:2]
    if cls is SolutionFamily:
        return entry("B1").families[:2]
    if cls is CatalogEntry:
        return entry("A2"), entry("B1")
    if cls is LiftedOperator:
        v = adjoint_bimodule(a2)
        return (lift_o_operator(a2, v, LinearMap(identity(2)), 0),
                lift_o_operator(a2, v, zero_map(2), HALF))
    if cls is SemidirectSolutions:
        v = dual_regular_bimodule(a2)
        return (semidirect_solutions(a2, v, zero_map(2, domain="dual"), zero_map(2), 1, 0),
                semidirect_solutions(a2, v, zero_map(2, domain="dual"), zero_map(2), HALF, 0))
    if cls is Dendriform:
        return Dendriform(2, zero, zero), Dendriform(2, step, zero)
    if cls is UnitalDendriform:
        return unital_extension(Dendriform(2, zero, zero))[1], \
            unital_extension(Dendriform(2, step, zero))[1]
    if cls is FrobeniusStructure:
        return trace_form(1)[1], trace_form(2)[1]
    if cls is LinearMap:
        return LinearMap(((1, HALF),)), LinearMap(identity(2), "dual")
    if cls is BimoduleAlgebra:
        return BimoduleAlgebra(adjoint_bimodule(a2), a2.sc), \
            BimoduleAlgebra(adjoint_bimodule(b1), b1.sc)
    if cls is WeightOp:
        return WeightOp.zero(), WeightOp.scalar(HALF, a2.sc)
    if cls is CheckReport:
        return CheckReport("x", True), CheckReport("y", False, {"kind": 1}, {"dim": 2})
    if cls is Tensor2:
        return Tensor2(2, ((1, HALF), (0, 1))), Tensor2(1, ((-1,),))
    if cls is Tensor3:
        return Tensor3(1, (((1,),),)), embed(Tensor2(2, ((1, HALF), (0, 1))), 13, a2)
    if cls is YbeInstance:
        return inst("A2", 1), inst("B1", HALF)
    raise AssertionError(cls)


def fields_of(cls, x):
    return tuple(getattr(x, f) for f in names(cls))


def same(x, t, cls):
    """x and its twin t hold the same field values, types included, and
    print alike."""
    return typed_tree(fields_of(cls, x)) == typed_tree(fields_of(cls, t)) \
        and repr(x) == repr(t)


def hashed(x):
    try:
        return hash(x)
    except TypeError as exc:
        return TypeError, str(exc)


def test_every_value_class_is_compared():
    mods = {m for n, m in sys.modules.items() if n.startswith("ybekit.")}
    found = {c for m in mods for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, Frozen) and c is not Frozen}
    assert found == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_the_dataclass_fields(cls):
    assert cls._fields == names(cls)
    for x in samples(cls):
        assert typed_tree(x) == (cls.__name__, typed_tree(fields_of(cls, x)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_matches_the_dataclass(cls):
    twin_cls = TWINS[cls]
    required = sum(isinstance(f, str) for f in FIELDS[cls])
    for x in samples(cls):
        args = fields_of(cls, x)
        kw = dict(zip(names(cls), args))
        assert same(cls(*args), twin_cls(*args), cls)
        assert same(cls(**kw), twin_cls(**kw), cls)
        assert same(cls(*args[:required]), twin_cls(*args[:required]), cls)
        assert same(_trusted(cls, *args), twin_cls(*args), cls)
        assert _trusted(cls, *args) == cls(*args)
    with pytest.raises(ValueError):
        _trusted(cls, *args, None)


def test_report_details_default_is_fresh():
    a, b = CheckReport("x", True), CheckReport("x", True)
    assert a.details == {} and a.details is not b.details


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_match_the_dataclass(cls):
    twin_cls = TWINS[cls]
    xs = [*samples(cls), *samples(cls)]
    ts = [twin_cls(*fields_of(cls, x)) for x in xs]
    for (x, t), (y, u) in product(zip(xs, ts), repeat=2):
        assert (x == y, x != y) == (t == u, t != u)
        assert (x == u, u != x) == (t == x, x != t) == (False, True)
    for x, t in zip(xs, ts):
        assert (x == 0, x != None) == (t == 0, t != None) == (False, True)  # noqa: E711
        assert hashed(x) == hashed(t)
        assert repr(x) == repr(t)
    if cls in (CheckReport, CatalogEntry):
        assert hashed(xs[0])[0] is TypeError


def test_equality_across_classes_with_equal_fields():
    """Instances of two classes never compare equal, even field for field."""
    ours = [_trusted(cls, *range(len(cls._fields))) for cls in CLASSES]
    twins = [TWINS[cls](*range(len(cls._fields))) for cls in CLASSES]
    assert Tensor2._values(ours[CLASSES.index(Tensor2)]) == (0, 1)
    assert Tensor3._values(ours[CLASSES.index(Tensor3)]) == (0, 1)
    for (x, t), (y, u) in product(zip(ours, twins), repeat=2):
        assert (x == y, x != y) == (t == u, t != u)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_as_in_the_dataclass(cls):
    x = samples(cls)[0]
    t = TWINS[cls](*fields_of(cls, x))
    before = fields_of(cls, x)

    def refused(f, *args):
        """The message of the AttributeError (for the dataclass, its subclass
        FrozenInstanceError) that f(*args) raises."""
        with pytest.raises(AttributeError) as exc:
            f(*args)
        return str(exc.value)
    for name in (names(cls)[0], names(cls)[-1], "other"):
        assert refused(setattr, x, name, 0) == refused(setattr, t, name, 0)
        assert refused(delattr, x, name) == refused(delattr, t, name)
    assert fields_of(cls, x) == before


def test_typed_tree_descends_into_value_classes():
    one = Tensor2(1, ((1,),))
    assert typed_tree(one) != typed_tree(_trusted(Tensor2, 1, ((Fraction(1),),)))
    assert typed_tree(one) == ("Tensor2", ((int, 1), (((int, 1),),)))


def test_cli_import_loads_no_code_generating_module():
    src = Path(ybekit.__file__).resolve().parents[1]
    code = ("import sys, ybekit.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
