import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit.errors import DimensionError, DomainError
from branchkit.lattice import (
    coroot_pairing,
    format_weight,
    identity_form,
    inner,
    parse_weight,
    rational_solve,
    reflect,
    reflect_point,
    reflection_matrix,
    wadd,
    weight,
    wscale,
    wsub,
)
from branchkit.rootsystems import quaternionic_root_datum
from oracle_reference import apply_matrix

# G2 in the plane x + y + z = 0 of Q^3, with the Euclidean inner product:
# short simple root norm 2, long simple root norm 6
_G2_DATUM = quaternionic_root_datum("g2_2")
G2_ROOTS, (A1_SHORT, A2_LONG) = _G2_DATUM.roots, _G2_DATUM.simple
G2 = identity_form(3)
BETA = weight([-1, -1, 2])  # highest root 3 a1 + 2 a2


def test_inner_orthonormal():
    form = identity_form(2)
    assert inner(form, weight([1, 0]), weight([0, 1])) == 0
    assert inner(form, weight([1, 0]), weight([1, 0])) == 1


def test_inner_short_long_highest_root():
    assert BETA in G2_ROOTS
    assert inner(G2, A1_SHORT, BETA) == 0
    assert inner(G2, BETA, BETA) == inner(G2, A2_LONG, A2_LONG) == 6
    assert inner(G2, A1_SHORT, A1_SHORT) == 2


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionError):
        inner(identity_form(2), weight([1, 0, 0]), weight([0, 1]))


def test_coroot_pairing_self_is_two():
    form = identity_form(3)
    g = weight([1, -1, 0])
    assert coroot_pairing(form, g, g) == 2


def test_coroot_pairing_short_long():
    assert coroot_pairing(G2, A2_LONG, BETA) == 1
    assert coroot_pairing(G2, BETA, A2_LONG) == 1
    assert coroot_pairing(G2, A1_SHORT, A2_LONG) == -1
    assert coroot_pairing(G2, A2_LONG, A1_SHORT) == -3


def test_reflect_short_long():
    assert reflect(G2, A1_SHORT, BETA) == A1_SHORT
    assert reflect(G2, BETA, A2_LONG) == wsub(BETA, A2_LONG)
    assert reflect(G2, A2_LONG, A1_SHORT) == wadd(A2_LONG, wscale(3, A1_SHORT))


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
@given(st.lists(rationals, min_size=3, max_size=3), st.sampled_from(G2_ROOTS))
def test_reflection_matrix_matches_reflect(coords, g):
    lam = weight(coords)
    assert apply_matrix(reflection_matrix(g), lam) == reflect(G2, lam, g)


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


def test_parse_weight_rejects_coordinates_too_long_to_print():
    # a numerator or denominator with more digits than ints convert to text
    # is rejected before it is built, so a huge exponent returns at once;
    # the longest accepted ones round-trip
    limit = sys.get_int_max_str_digits()
    start = time.process_time()
    for text in ("1e100000000", "1,-1e-100000000", "0e100000000", "1e" + "9" * 40,
                 f"1e{limit}", f"1e-{limit}", "1" * (limit + 1), "1/" + "3" * (limit + 1)):
        with pytest.raises(DomainError, match=f"more than {limit} digits"):
            parse_weight(text)
    assert time.process_time() - start < 1
    for text in (f"1e{limit - 1}", f"-1e-{limit - 1}", "7" * limit, "2.5e3"):
        w = parse_weight(text)
        assert parse_weight(format_weight(w)) == w


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.sampled_from(G2_ROOTS))
def test_reflect_point_matches_reflect(c1, c2, g):
    # on the root lattice, where 2 (v, g) / (g, g) is an int
    lam = wadd(wscale(c1, A1_SHORT), wscale(c2, A2_LONG))
    point, root = tuple(map(int, lam)), tuple(map(int, g))
    assert weight(reflect_point(point, root, int(inner(G2, g, g)))) == reflect(G2, lam, g)


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
