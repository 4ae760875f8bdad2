"""Unit tests for literal primitives."""

import pytest

from repro.core.literals import (
    EXISTS,
    FORALL,
    Quant,
    check_no_duplicate_vars,
    lit_name,
    neg,
    sign,
    var_of,
)


def test_var_of_positive_and_negative():
    assert var_of(5) == 5
    assert var_of(-5) == 5


def test_neg_is_involution():
    for lit in (1, -1, 42, -42):
        assert neg(neg(lit)) == lit
        assert neg(lit) == -lit


def test_sign():
    assert sign(3)
    assert not sign(-3)


def test_quant_dual():
    assert EXISTS.dual is FORALL
    assert FORALL.dual is EXISTS
    assert EXISTS.dual.dual is EXISTS


def test_quant_symbols():
    assert EXISTS.symbol == "∃"
    assert FORALL.symbol == "∀"


def test_quant_enum_values():
    assert Quant("e") is EXISTS
    assert Quant("a") is FORALL


def test_lit_name():
    assert lit_name(3) == "z3"
    assert lit_name(-3) == "¬z3"
    assert lit_name(7, "x") == "x7"


def test_check_no_duplicate_vars_sorts_canonically():
    assert check_no_duplicate_vars([3, -1, 2]) == (-1, 2, 3)
    assert check_no_duplicate_vars([]) == ()


def test_check_no_duplicate_vars_dedupes_identical_literals():
    assert check_no_duplicate_vars([2, 2, -1]) == (-1, 2)


def test_check_no_duplicate_vars_rejects_opposite_literals():
    with pytest.raises(ValueError):
        check_no_duplicate_vars([1, -1])


def test_check_no_duplicate_vars_rejects_zero():
    with pytest.raises(ValueError):
        check_no_duplicate_vars([0])


def test_check_no_duplicate_vars_tuples_take_the_same_path():
    # canonical tuples come back as they are; any other tuple is checked
    # and canonicalized exactly like a list
    canonical = (-1, 2, 5)
    assert check_no_duplicate_vars(canonical) is canonical
    assert check_no_duplicate_vars((3, -1, 2)) == (-1, 2, 3)
    assert check_no_duplicate_vars((2, 2, -1)) == (-1, 2)
    for bad in ((1, -1), (0,), (-2, 0, 3)):
        with pytest.raises(ValueError):
            check_no_duplicate_vars(bad)
