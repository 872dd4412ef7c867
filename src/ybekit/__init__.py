"""Exact-arithmetic toolkit for the nonhomogeneous associative Yang-Baxter
equation: verification, operator forms, Frobenius bridges, constructions in
semi-direct products and unitizations, and a built-in low-dimensional
catalog."""

from .algebras import (
    Algebra,
    Augmentation,
    BilinearForm,
    Bimodule,
    adjoint_bimodule,
    algebra_from_products,
    check_algebra,
    check_augmentation,
    check_bimodule,
    dual_bimodule,
    dual_regular_bimodule,
    find_augmentations,
    make_algebra,
    matrix_algebra,
    semidirect_product,
    unitization,
)
from .catalog import (
    CatalogEntry,
    SolutionFamily,
    catalog_algebra,
    catalog_names,
    catalog_rb_tables,
    catalog_solutions,
    verify_catalog,
)
from .constructions import (
    LiftedOperator,
    SemidirectSolutions,
    check_balanced_hom,
    extract_rb_pair,
    extracted_weight_branch,
    extraction_identity_check,
    hom_tensor,
    lift_o_operator,
    pair_identity_residual,
    rb_from_solution,
    semidirect_solutions,
    solutions_from_rb,
)
from .dendriform import (
    Dendriform,
    UnitalDendriform,
    action_bimodule,
    associated_algebra,
    check_dendriform,
    dendriform_solutions,
    succ_prec_bimodule,
    unital_extension,
)
from .errors import (
    BudgetExceeded,
    Degenerate,
    DimensionMismatch,
    InvalidAugmentation,
    NotAssociative,
    NotDendriform,
    NotInvariant,
    NotInvariantForm,
    NotSymmetric,
    NotSymmetricForm,
    NotUnital,
    PreconditionViolated,
    SingularMatrix,
    UndefinedProduct,
    UnknownName,
    YbeError,
    ZeroMu,
)
from .frobenius import (
    FrobeniusStructure,
    augmentation_form,
    frobenius_from_form,
    frobenius_suite,
    induced_operators,
    proportional_lambda,
    rb_bridge_suite,
    trace_form,
)
from .linalg import exact, identity, invert, kernel_basis, rank, scalar_str
from .operators import (
    BimoduleAlgebra,
    LinearMap,
    WeightOp,
    aybp_residual,
    check_bimodule_algebra,
    dual_map,
    dual_operator_suite,
    invariant_dual_product,
    invariant_operator_suite,
    o_operator_residual,
    operator_form_suite,
    rb_system_residual,
    residual_is_zero,
    rota_baxter_residual,
    sharp,
    tensor_from_dual_product,
    tensor_of_sharp,
    tsharp,
)
from .report import CheckReport
from .tensors import Tensor2, Tensor3, outer, t2_basis, t2_from_entries, t2_zero
from .ybe import (
    YbeInstance,
    embed,
    extended_symmetrizer,
    grid_enumerate,
    invariant_symmetric_basis,
    is_invariant,
    is_solution,
    is_symmetrized_invariant,
    nhacybe_residual,
    opposite_residual,
    triple_mul,
    unit_square,
)

__version__ = "0.1.0"
