"""Exact polynomial algebra with the standard symmetric biderivation.

The gradient product ``f o g = sum_i (df/dx_i)(dg/dx_i)`` on K[x1..xn],
its Jordan structure on low degrees, weight-space decompositions,
constructive simplicity witnesses, and the orthogonal automorphism
correspondence -- all over exact coefficient fields (the rationals or an
odd prime field).
"""

from .automorphisms import (
    Substitution,
    aut_dim1,
    check_automorphism,
    compose_check,
    dim1_compose_check,
    induced_map,
    is_orthogonal,
    rational_cosine_sine,
    rational_orthogonal_sample,
    substitute,
)
from .errors import (
    BiderivError,
    CharacteristicError,
    CoercionError,
    DegreeGuardError,
    DimensionMismatchError,
    DomainError,
    FieldMismatchError,
    ParseError,
    PreconditionError,
    SeparationError,
)
from .fields import QQ, Field, FpElement, PrimeField, RationalField, Scalar, field_from_name
from .jordan import (
    GradedPair,
    bimodule_defects,
    jordan_identity_defect,
    matrix_correspondence_residual,
    matrix_jordan_product,
    matrix_to_quadratic,
    quadratic_form,
    quadratic_to_matrix,
    radical_nilpotency_check,
    semidirect_jordan_defect,
    semidirect_product,
    unit,
)
from .matrices import SquareMatrix, SymMatrix
from .poly import (
    Monomial,
    Polynomial,
    VectorField,
    associator,
    bracket_with_square,
    circ,
    gradient,
    iterated_circ,
    jacobiator,
    lie_bracket,
    monomials_of_degree,
    random_homogeneous_polynomial,
    random_polynomial,
)
from .simplicity import (
    Subspace,
    TransferOperator,
    bimodule_closure,
    eigen_split,
    ideal_reduce,
    is_simple_bimodule,
    separating_cartan,
    transfer_operator,
)
from .textio import ParseContext, format_polynomial, parse_polynomial
from .verdicts import SimplicityReport, Verdict
from .weights import (
    CartanElement,
    Weight,
    WeightDecomposition,
    basis_weight,
    cartan_action,
    decompose,
    idempotents,
    peirce_decomposition,
    product_rule_check,
    weight_of_monomial,
    weights_of_degree,
)

__version__ = "0.1.0"
