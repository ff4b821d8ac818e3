import functools
import importlib
import pkgutil
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchkit
from branchkit.errors import DimensionError, DomainError
from branchkit.formal import _window, product_region
from branchkit.lattice import (
    _written_digits,
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
from branchkit.oracle import OracleConfig
from branchkit.quaternionic import QuaternionicContext, SubgroupContext
from branchkit.rootsystems import positive_system, quaternionic_root_datum
from branchkit.specialcases import Sp1qContext
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


def _reference_parse_weight(text):
    """``parse_weight`` before its int fast path: every coordinate's digits
    counted, then every coordinate read by ``Fraction``."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise DomainError(f"cannot parse weight {text!r}")
    limit = sys.get_int_max_str_digits()
    for i, part in enumerate(parts, 1):
        if limit and _written_digits(part) > limit:
            raise DomainError(f"weight coordinate {i} has a numerator or denominator "
                              f"of more than {limit} digits")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse weight {text!r}: {exc}") from None


def _outcome(parse, text):
    try:
        value = parse(text)
    except DomainError as exc:
        return "error", str(exc)
    return [(type(c), c) for c in value]


_LIMIT = sys.get_int_max_str_digits()
_TOKENS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1/0", "-1/0", "0/0", "3/-2", "+-5", "-+5", "1_0", "1/1_0", "٣",
                     "-٣/٤", "１２", "+7", "+3/4", "-0", "1/2/3", "/2", "2/",
                     "1.5", "1e3", " 4 ", "x", "", "-", "+", "9" * _LIMIT, "9" * (_LIMIT + 1),
                     "-" + "9" * _LIMIT, "1/" + "9" * _LIMIT, "-" + "9" * _LIMIT + "/2",
                     "1/" + "9" * (_LIMIT + 1)]),
    st.tuples(st.integers(-50, 50), st.integers(-5, 50)).map(lambda ab: f"{ab[0]}/{ab[1]}"),
    st.text(st.sampled_from("0123456789+-/_. e٣"), max_size=6))


@settings(max_examples=400, deadline=None)
@given(st.lists(_TOKENS, min_size=1, max_size=5))
def test_parse_weight_fast_path_matches_fraction(tokens):
    # ints and plain a/b are built from int(), everything else by Fraction:
    # the same values, the same errors and the same coordinate in each error
    text = ",".join(tokens)
    assert _outcome(parse_weight, text) == _outcome(_reference_parse_weight, text)


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


# every class of the package made by ``lattice.record``: the classes that
# define ``__match_args__``, named tuples aside
RECORDS = sorted(
    (cls for info in pkgutil.iter_modules(branchkit.__path__)
     for cls in vars(importlib.import_module(f"branchkit.{info.name}")).values()
     if isinstance(cls, type) and cls.__module__ == f"branchkit.{info.name}"
     and "__match_args__" in vars(cls) and not issubclass(cls, tuple)),
    key=lambda cls: cls.__qualname__)
VALUE_RECORDS = {"DeltaSeries", "InnerProductForm", "OracleConfig", "ValidityRegion",
                 "WeylElement"}


def _fields(cls, first=1) -> dict:
    """A value per field, distinct ints from first on."""
    return {name: first + i for i, name in enumerate(cls.__match_args__)}


def test_every_record_is_found():
    assert len(RECORDS) == 18
    assert VALUE_RECORDS < {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_are_read_only(cls):
    fields = _fields(cls)
    rec = cls(*fields.values())
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert {name: getattr(rec, name) for name in fields} == fields
    assert list(vars(rec)) == list(fields)  # stored in field order


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_arguments(cls):
    fields = _fields(cls)
    values = list(fields.values())
    first = cls.__match_args__[0]
    assert vars(cls(**fields)) == vars(cls(*values)) == fields
    for bad in [lambda: cls(*values, 0), lambda: cls(*values, other=0),
                lambda: cls(*values, **{first: 0}), lambda: cls(**fields, other=0)]:
        with pytest.raises(TypeError):
            bad()
    required = [name for name in fields if not hasattr(cls, name)]
    for name in required:
        with pytest.raises(TypeError, match=name):
            cls(**{k: v for k, v in fields.items() if k != name})
    defaults = {name: getattr(cls, name) for name in fields if name not in required}
    assert vars(cls(*values[:len(required)])) == {**fields, **defaults}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_names_every_field(cls):
    fields = {**_fields(cls), cls.__match_args__[-1]: Fraction(1, 2)}
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality(cls):
    a, b, c = cls(**_fields(cls)), cls(**_fields(cls)), cls(**_fields(cls, first=2))
    assert a == a and a != c
    if cls.__name__ in VALUE_RECORDS:
        assert a == b and hash(a) == hash(b)
        assert len({a, b, c}) == 2
    else:
        assert a != b and hash(a) == object.__hash__(a)
        assert len({a, b, c}) == 3


def test_record_fields_follow_the_base_fields():
    base = SubgroupContext.__match_args__
    for cls in (QuaternionicContext, Sp1qContext):
        assert cls.__match_args__[:len(base)] == base
    assert QuaternionicContext.__match_args__[len(base):] == ("psi", "alpha", "fw1", "fw2", "d")


def test_record_post_init_checks_the_fields():
    assert OracleConfig() == OracleConfig(12) == OracleConfig(step_bound=12)
    for bad in (lambda: OracleConfig(0), lambda: OracleConfig(step_bound=-1)):
        with pytest.raises(DomainError, match="must be positive"):
            bad()


def test_cached_property_on_a_frozen_record():
    psi = positive_system(_G2_DATUM)
    rho = wscale(Fraction(1, 2), functools.reduce(wadd, _G2_DATUM.positive))
    assert psi.rho == rho and psi.rho is psi.rho
    with pytest.raises(AttributeError):
        psi.rho = rho


def test_equal_regions_share_one_window():
    ms = {(2, -2): 2, (-2, 4): 1}
    a, b = product_region(ms, 3), product_region(dict(reversed(ms.items())), 3)
    assert a is not b and a == b and hash(a) == hash(b)
    before = _window.cache_info()
    assert _window(a) is _window(b)
    after = _window.cache_info()
    assert after.currsize - before.currsize <= 1 and after.hits - before.hits >= 1
