"""Cold-start contract: what a CLI call imports, the lazy package namespace,
and the frozen records that replaced the dataclasses."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import bideriv
from bideriv import (QQ, DomainError, GradedPair, ParseContext, PreconditionError,
                     SimplicityReport, Substitution, TransferOperator, Verdict, Weight)
from bideriv.textio import _Token
from conftest import var

HANDLER_ONLY = ("dataclasses", "inspect", "bideriv.simplicity", "bideriv.jordan",
                "bideriv.weights", "bideriv.automorphisms", "bideriv.matrices")

# Every name the package exported when its __init__ imported all modules eagerly.
EXPORTED = """
    Substitution aut_dim1 check_automorphism compose_check dim1_compose_check induced_map
    is_orthogonal rational_cosine_sine rational_orthogonal_sample substitute
    BiderivError CharacteristicError CoercionError DegreeGuardError DimensionMismatchError
    DomainError FieldMismatchError ParseError PreconditionError SeparationError
    QQ Field FpElement PrimeField RationalField Scalar field_from_name
    GradedPair bimodule_defects jordan_identity_defect matrix_correspondence_residual
    matrix_jordan_product matrix_to_quadratic quadratic_form quadratic_to_matrix
    radical_nilpotency_check semidirect_jordan_defect semidirect_product unit
    SquareMatrix SymMatrix
    Monomial Polynomial VectorField associator bracket_with_square circ gradient
    iterated_circ jacobiator lie_bracket monomials_of_degree random_homogeneous_polynomial
    random_polynomial
    Subspace TransferOperator bimodule_closure eigen_split ideal_reduce is_simple_bimodule
    separating_cartan transfer_operator
    ParseContext format_polynomial parse_polynomial
    SimplicityReport Verdict
    CartanElement Weight WeightDecomposition basis_weight cartan_action decompose idempotents
    peirce_decomposition product_rule_check weight_of_monomial weights_of_degree
    automorphisms errors fields jordan matrices poly simplicity textio verdicts weights
    __version__
""".split()


def test_circ_call_loads_no_handler_only_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bideriv.__file__)))
    code = ("import sys, bideriv.cli\n"
            "bideriv.cli.main(['circ', '-n', '2', 'x1', 'x2'])\n"
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    result, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    assert result == "0" and "bideriv.cli" in loaded
    assert sorted(loaded.intersection(HANDLER_ONLY)) == []


def test_every_formerly_exported_name_resolves_and_is_listed():
    names = dir(bideriv)
    for name in EXPORTED:
        assert getattr(bideriv, name) is not None, name
        assert name in names, name
    assert bideriv.Weight is bideriv.weights.Weight
    with pytest.raises(AttributeError):
        bideriv.no_such_name
    with pytest.raises(ImportError):
        from bideriv import no_such_name  # noqa: F401


def _records():
    """(record, an equal copy, a different record, its fields, dataclass-style repr)."""
    x, y = var(2, 1), var(2, 2)
    return [
        (Verdict(True, "ok"), Verdict(True, detail="ok"), Verdict(False, "ok"),
         (True, "ok", None), "Verdict(ok=True, detail='ok', witness=None)"),
        (SimplicityReport(2, 3, 4, 6), SimplicityReport(2, 3, 4, 6, ()),
         SimplicityReport(2, 3, 4, 6, (("x1^3", 1),)), (2, 3, 4, 6, ()),
         "SimplicityReport(n=2, k=3, expected_dimension=4, seeds_checked=6, failures=())"),
        (ParseContext(2), ParseContext(n=2, field=QQ), ParseContext(2, max_degree=4),
         (2, QQ, None), "ParseContext(n=2, field=QQ, max_degree=None)"),
        (_Token("int", 5, 3), _Token("int", 5, 3), _Token("int", 5, 4), ("int", 5, 3),
         "_Token(kind='int', value=5, pos=3)"),
        (Substitution([x, y]), Substitution((x, y)), Substitution((y, x)), ((x, y),),
         "Substitution(images=(Polynomial(2, 'x1'), Polynomial(2, 'x2')))"),
        (GradedPair(x * x, y), GradedPair(x ** 2, y), GradedPair(x * y, y), (x * x, y),
         "GradedPair(quad=Polynomial(2, 'x1^2'), lin=Polynomial(2, 'x2'))"),
        (TransferOperator(1, 2), TransferOperator(i=1, j=2), TransferOperator(2, 1), (1, 2),
         "TransferOperator(i=1, j=2)"),
        (Weight([2, 0]), Weight((2, 0)), Weight((0, 2)), ((2, 0),), "Weight(exponents=(2, 0))"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS,
                         ids=[type(case[0]).__name__ for case in RECORDS])
def test_records_compare_hash_and_print_like_frozen_dataclasses(record, same, other, fields,
                                                                text):
    assert record == same and record != other and not record == other
    assert record != fields and fields != record
    try:
        hash(fields)
    except TypeError:  # Polynomial fields are unhashable, and so were these dataclasses
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)
    assert repr(record) == text
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    first = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, first) == fields[0]


def test_record_validation_still_runs():
    with pytest.raises(PreconditionError):
        TransferOperator(1, 1)
    with pytest.raises(DomainError):
        Weight((1, -1))
    with pytest.raises(DomainError):
        Substitution(())
    with pytest.raises(DomainError):
        GradedPair(var(2, 1), var(2, 2))
