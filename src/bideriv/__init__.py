"""Exact polynomial algebra with the standard symmetric biderivation.

The gradient product ``f o g = sum_i (df/dx_i)(dg/dx_i)`` on K[x1..xn],
its Jordan structure on low degrees, weight-space decompositions,
constructive simplicity witnesses, and the orthogonal automorphism
correspondence -- all over exact coefficient fields (the rationals or an
odd prime field).  Public names load their module on first access (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names this package re-exports from it
_EXPORTS = {
    "automorphisms": ("Substitution", "aut_dim1", "check_automorphism", "compose_check",
                      "dim1_compose_check", "induced_map", "is_orthogonal",
                      "rational_cosine_sine", "rational_orthogonal_sample", "substitute"),
    "errors": ("BiderivError", "CharacteristicError", "CoercionError", "DegreeGuardError",
               "DimensionMismatchError", "DomainError", "FieldMismatchError", "ParseError",
               "PreconditionError", "SeparationError"),
    "fields": ("QQ", "Field", "FpElement", "PrimeField", "RationalField", "Scalar",
               "field_from_name"),
    "jordan": ("GradedPair", "bimodule_defects", "jordan_identity_defect",
               "matrix_correspondence_residual", "matrix_jordan_product", "matrix_to_quadratic",
               "quadratic_form", "quadratic_to_matrix", "radical_nilpotency_check",
               "semidirect_jordan_defect", "semidirect_product", "unit"),
    "matrices": ("SquareMatrix", "SymMatrix"),
    "poly": ("Monomial", "Polynomial", "VectorField", "associator", "bracket_with_square",
             "circ", "gradient", "iterated_circ", "jacobiator", "lie_bracket",
             "monomials_of_degree", "random_homogeneous_polynomial", "random_polynomial"),
    "simplicity": ("Subspace", "TransferOperator", "bimodule_closure", "eigen_split",
                   "ideal_reduce", "is_simple_bimodule", "separating_cartan",
                   "transfer_operator"),
    "textio": ("ParseContext", "format_polynomial", "parse_polynomial"),
    "verdicts": ("SimplicityReport", "Verdict"),
    "weights": ("CartanElement", "Weight", "WeightDecomposition", "basis_weight",
                "cartan_action", "decompose", "idempotents", "peirce_decomposition",
                "product_rule_check", "weight_of_monomial", "weights_of_degree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
