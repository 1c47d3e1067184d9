from fractions import Fraction

import pytest

from bideriv import (
    QQ,
    CharacteristicError,
    CoercionError,
    FieldMismatchError,
    FpElement,
    PrimeField,
    field_from_name,
)
from bideriv.fields import scalar_to_str


def test_rationals_are_fractions_in_lowest_terms():
    c = QQ("6/4")
    assert c == Fraction(3, 2)
    assert c.denominator == 2
    assert QQ(-3) == Fraction(-3)


def test_rational_rejects_garbage():
    with pytest.raises(CoercionError):
        QQ("3//4")
    with pytest.raises(CoercionError):
        QQ(FpElement(1, 5))


def test_prime_field_arithmetic_is_exact():
    f5 = PrimeField(5)
    a, b = f5(3), f5(4)
    assert a + b == 2
    assert a - b == 4
    assert a * b == 2
    assert a / b == f5(3) * f5(4) ** (-1)
    assert (a / b) * b == a
    assert -a == 2
    assert f5(Fraction(1, 2)) == 3  # inverse of 2 mod 5


def test_prime_field_canonical_residues():
    f7 = PrimeField(7)
    assert f7(-1).value == 6
    assert f7(15).value == 1
    assert scalar_to_str(f7(-1)) == "6"
    assert scalar_to_str(Fraction(-3, 4)) == "-3/4"


def test_characteristic_two_rejected():
    with pytest.raises(CharacteristicError):
        PrimeField(2)


def test_composite_modulus_rejected():
    with pytest.raises(CoercionError):
        PrimeField(9)
    with pytest.raises(CoercionError):
        PrimeField(1)


def test_cross_field_mixing_raises():
    with pytest.raises(FieldMismatchError):
        PrimeField(5)(1) + PrimeField(7)(1)
    with pytest.raises(FieldMismatchError):
        PrimeField(7)(FpElement(1, 5))


def test_fraction_without_image_in_fp():
    with pytest.raises(CoercionError):
        PrimeField(5)(Fraction(1, 5))


def test_division_by_zero_residue():
    f5 = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f5(1) / f5(0)


def test_field_from_name_round_trip():
    assert field_from_name("q") == QQ
    assert field_from_name("fp:11") == PrimeField(11)
    with pytest.raises(CoercionError):
        field_from_name("r")
    assert field_from_name(QQ.name) == QQ
    assert field_from_name(PrimeField(13).name) == PrimeField(13)


def test_fp_equality_with_ints_and_hash():
    f5 = PrimeField(5)
    assert f5(8) == 3
    assert f5(8) != 8  # only the reduced representative compares equal
    assert hash(f5(3)) == hash(3)
    assert not f5(0)
    assert f5(1)


def test_fp_equality_with_ints_implies_equal_hash():
    assert FpElement(1, 5) != 6
    assert FpElement(1, 5) == 1
    for p in (3, 5, 7, 11, 13):
        for value in range(-2 * p, 2 * p):
            x = FpElement(value, p)
            for k in range(-2 * p, 3 * p):
                if x == k:
                    assert k == x.value
                    assert hash(x) == hash(k)
                assert (x == k) == (k == x)
