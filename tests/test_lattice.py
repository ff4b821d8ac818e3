from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit.errors import DimensionError, DomainError
from branchkit.lattice import (
    coroot_pairing,
    format_weight,
    gram_form,
    identity_form,
    inner,
    parse_weight,
    rational_solve,
    reflect,
    weight,
)

# rank-2 system with one short and one long simple root, long norm 2:
# gram over the simple-root basis
G2_GRAM = gram_form([[Fraction(2, 3), -1], [-1, 2]])
A1_SHORT = weight([1, 0])
A2_LONG = weight([0, 1])
BETA = weight([3, 2])  # highest root in simple coordinates


def test_inner_orthonormal():
    form = identity_form(2)
    assert inner(form, weight([1, 0]), weight([0, 1])) == 0
    assert inner(form, weight([1, 0]), weight([1, 0])) == 1


def test_inner_short_long_highest_root():
    assert inner(G2_GRAM, A1_SHORT, BETA) == 0
    assert inner(G2_GRAM, BETA, BETA) == 2


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionError):
        inner(identity_form(2), weight([1, 0, 0]), weight([0, 1]))


def test_coroot_pairing_self_is_two():
    form = identity_form(3)
    g = weight([1, -1, 0])
    assert coroot_pairing(form, g, g) == 2


def test_coroot_pairing_short_long():
    assert coroot_pairing(G2_GRAM, A2_LONG, BETA) == 1
    assert coroot_pairing(G2_GRAM, BETA, A2_LONG) == 1


def test_coroot_pairing_zero_root_rejected():
    with pytest.raises(DomainError):
        coroot_pairing(identity_form(2), weight([1, 0]), weight([0, 0]))


def test_reflect_fixes_orthogonal():
    form = identity_form(2)
    assert reflect(form, weight([0, 5]), weight([1, 0])) == weight([0, 5])


def test_reflect_negates_the_root():
    form = identity_form(2)
    g = weight([1, 1])
    assert reflect(form, g, g) == weight([-1, -1])


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3))
def test_reflect_involution(coords):
    form = identity_form(3)
    g = weight([1, -1, 0])
    lam = weight(coords)
    assert reflect(form, reflect(form, lam, g), g) == lam


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
)
def test_inner_symmetric_and_reflection_isometry(a, b):
    form = identity_form(3)
    g = weight([0, 1, -1])
    wa, wb = weight(a), weight(b)
    assert inner(form, wa, wb) == inner(form, wb, wa)
    assert inner(form, reflect(form, wa, g), reflect(form, wb, g)) == inner(form, wa, wb)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=5))
def test_parse_format_roundtrip(coords):
    w = weight(coords)
    assert parse_weight(format_weight(w)) == w


def test_parse_weight_text_form():
    assert parse_weight("3/2,-1/2,0,0") == (
        Fraction(3, 2),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(0),
    )
    with pytest.raises(DomainError):
        parse_weight("1,,2")


def test_weight_equality_as_keys():
    table = {weight(["1/2", "2/4"]): 7}
    assert table[weight([Fraction(2, 4), Fraction(1, 2)])] == 7


def test_rational_solve_consistent_and_inconsistent():
    cols = [weight([1, 0, 1]), weight([0, 1, 1])]
    assert rational_solve(cols, weight([2, 3, 5])) == (Fraction(2), Fraction(3))
    assert rational_solve(cols, weight([2, 3, 6])) is None


def test_rational_solve_is_exact_on_int_input():
    sol = rational_solve([(2, 0), (0, 3)], (1, 1))
    assert sol == (Fraction(1, 2), Fraction(1, 3))
    assert all(isinstance(x, Fraction) for x in sol)
