from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit.errors import DomainError
from branchkit.formal import (
    DeltaSeries,
    ValidityRegion,
    _cone,
    convolve,
    convolve_multiset,
    dirac,
    heaviside,
    heaviside_power,
    product_size,
)

# Points are int tuples; G and H are the unit weights in doubled coordinates,
# so that every half-sum base below is an integer point.
G = (2, 0)
H = (0, 2)


def wscale(c, g):
    """c * g as an int point; c may be a half-integer."""
    out = [Fraction(c) * x for x in g]
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out)


def wadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def weight(coords):
    """The doubled coordinates of a weight."""
    return wscale(2, tuple(coords))


def test_dirac_basics():
    z = weight([0, 0])
    d = dirac(z)
    assert d.coefficient(z) == 1
    assert d.coefficient(weight([1, 1])) == 0  # exact zero, not unknown
    assert convolve(dirac(G), dirac(H)).coefficient(wadd(G, H)) == 1


def test_heaviside_expansion():
    s = heaviside(G, 2)
    assert s.coefficient(wscale(Fraction(1, 2), G)) == 1
    assert s.coefficient(wscale(Fraction(3, 2), G)) == 1
    assert s.coefficient(wscale(Fraction(5, 2), G)) == 1
    # beyond the truncation: unknown, not zero
    assert s.coefficient(wscale(Fraction(7, 2), G)) is None
    # off the ray: exact zero
    assert s.coefficient(weight([0, 7])) == 0


def test_heaviside_single_step():
    s = heaviside(G, 0)
    assert s.coefficient(wscale(Fraction(1, 2), G)) == 1


def test_heaviside_rejects_zero_direction():
    with pytest.raises(DomainError):
        heaviside(weight([0, 0]), 3)


def test_convolution_identity_element():
    s = heaviside(G, 5)
    t = convolve(s, dirac(weight([0, 0])))
    assert t.coeffs == s.coeffs


def test_self_convolution_counts():
    s = heaviside(G, 6)
    t = convolve(s, s)
    for n in range(7):
        assert t.coefficient(wscale(Fraction(1) + n, G)) == n + 1


def _difference(a: dict, b: dict) -> dict:
    """Coefficients of a - b, with zeros dropped."""
    out = {p: a.get(p, 0) - b.get(p, 0) for p in a.keys() | b.keys()}
    return {p: c for p, c in out.items() if c}


def test_bilinearity():
    s = heaviside(G, 4)
    mu, nu = weight([2, 0]), weight([0, 2])
    lhs = convolve(DeltaSeries(_difference(dirac(mu).coeffs, dirac(nu).coeffs)), s)
    rhs = _difference(convolve(dirac(mu), s).coeffs, convolve(dirac(nu), s).coeffs)
    assert lhs.coeffs == rhs


def test_heaviside_power_binomials():
    s = heaviside_power(G, 3, 5)
    assert s.coefficient(wscale(Fraction(3, 2) + 2, G)) == comb(4, 2)
    assert heaviside_power(G, 0, 5).coeffs == {weight([0, 0]): 1}
    one = heaviside_power(G, 1, 5)
    assert one.coeffs == heaviside(G, 5).coeffs


def test_power_equals_iterated_convolution():
    for r in range(1, 5):
        direct = heaviside_power(G, r, 10)
        it = dirac(weight([0, 0]))
        for _ in range(r):
            it = convolve(it, heaviside(G, 10))
        for n in range(11):
            x = wadd(wscale(Fraction(r, 2), G), wscale(n, G))
            assert direct.coefficient(x) == it.coefficient(x)


def test_multiset_single_direction():
    s = convolve_multiset({G: 1}, 4)
    assert s.coeffs == heaviside(G, 4).coeffs


def test_multiset_minimal_weight():
    s = convolve_multiset({G: 2, H: 1}, 6)
    base = wadd(G, wscale(Fraction(1, 2), H))
    assert s.coefficient(base) == 1


def test_multiset_double_binomial():
    d = 4
    ms = {G: d - 1, H: d - 1}
    s = convolve_multiset(ms, 7)
    base = wscale(Fraction(d - 1, 2), wadd(G, H))
    for p in range(4):
        for q in range(4):
            x = wadd(base, wadd(wscale(p, G), wscale(q, H)))
            assert s.coefficient(x) == comb(p + d - 2, d - 2) * comb(q + d - 2, d - 2)


def test_multiset_rejects_zero_and_empty():
    with pytest.raises(DomainError):
        convolve_multiset({weight([0, 0]): 1, G: 1}, 3)
    with pytest.raises(DomainError):
        convolve_multiset({}, 3)


def test_zero_direction_raises_domain_error():
    # a zero direction among two independent ones, and beside one direction
    with pytest.raises(DomainError, match="zero direction"):
        product_size({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 3)
    region = ValidityRegion((0, 0), (((0, 0), 1), ((1, 0), 1), ((0, 1), 1)), 2)
    with pytest.raises(DomainError, match="zero direction"):
        region.certain_at((5, 5))
    with pytest.raises(DomainError, match="zero direction"):
        product_size({(0, 0): 1, (1, 0): 1}, 3)


def test_region_without_directions_certifies_every_point():
    # its cone is the base alone: every other point has no decomposition
    region = ValidityRegion((0, 0), (), 2)
    assert region.certain_at((0, 0)) and region.certain_at((1, 1))


def test_direction_off_the_plane_is_rejected():
    dirs = {(2, 0, 0): 1, (0, 2, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1}
    with pytest.raises(DomainError):
        product_size(dirs, 3)
    with pytest.raises(DomainError):
        convolve_multiset(dirs, 3)


def test_multiset_rejects_opposite_directions():
    with pytest.raises(DomainError):
        convolve_multiset({G: 1, wscale(-1, G): 1}, 3)


def test_dependent_directions_stay_exact():
    # directions u, v, u+v: decompositions are not unique, the certified
    # region must still match a wider reference computation
    u, v = weight([1, 0]), weight([0, 1])
    uv = wadd(u, v)
    ms = {u: 1, v: 1, uv: 1}
    s = convolve_multiset(ms, 4)
    big = convolve(convolve(heaviside(u, 30), heaviside(v, 30)), heaviside(uv, 30))
    for x, c in big.coeffs.items():
        got = s.coefficient(x)
        if got is not None:
            assert got == c
    # spot value: x = base + u + v reachable as (1,1,0) and (0,0,1)
    base = wscale(Fraction(1, 2), wadd(uv, uv))  # half-sum of the multiset
    x = wadd(base, uv)
    assert s.coefficient(x) == big.coeffs[x]


def test_collinear_multiple_directions():
    ms = {G: 1, wscale(2, G): 1}
    s = convolve_multiset(ms, 4)
    big = convolve(heaviside(G, 40), heaviside(wscale(2, G), 40))
    for x in list(big.coeffs):
        got = s.coefficient(x)
        if got is not None:
            assert got == big.coeffs[x]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_convolve_commutative_associative(a, b, na, nb):
    sa = convolve(dirac(weight(a)), heaviside(G, na))
    sb = convolve(dirac(weight(b)), heaviside(H, nb))
    sc = dirac(weight([1, 1]))
    assert convolve(sa, sb).coeffs == convolve(sb, sa).coeffs
    assert (
        convolve(convolve(sa, sb), sc).coeffs == convolve(sa, convolve(sb, sc)).coeffs
    )


def test_heaviside_rejects_off_lattice_base():
    # the base (1/2) * (1, 0) is not an integer point
    with pytest.raises(DomainError):
        heaviside((1, 0), 3)


def _brute_min_steps(v, dirs):
    """Least step count reaching v from 0, by breadth-first search over the
    points whose value under a positive functional stays within v's."""
    m = 1 + max(abs(x) for x, _ in dirs)
    f = (1, m) if all(y > 0 or (y == 0 and x > 0) for x, y in dirs) else (-1, -m)
    value = lambda p: f[0] * p[0] + f[1] * p[1]
    budget = value(v)
    frontier = {(0, 0)}
    for steps in range(max(budget, -1) + 1):
        if v in frontier:
            return steps
        frontier = {
            q for p in frontier for d in dirs
            for q in [(p[0] + d[0], p[1] + d[1])] if value(q) <= budget
        }
    return None


# directions in the pointed half plane {y > 0} + {y = 0, x > 0}, optionally negated
_upper = st.tuples(st.integers(-3, 3), st.integers(0, 3)).filter(
    lambda d: d[1] > 0 or d[0] > 0
)


@st.composite
def _direction_sets(draw):
    kind = draw(st.sampled_from(["independent", "collinear", "dependent"]))
    if kind == "collinear":
        u = draw(_upper)
        dirs = {tuple(k * x for x in u) for k in draw(st.sets(st.integers(1, 3), min_size=2))}
    else:
        size = (1, 2) if kind == "independent" else (3, 4)  # two may be parallel
        dirs = draw(st.sets(_upper, min_size=size[0], max_size=size[1]))
    if draw(st.booleans()):
        dirs = {(-x, -y) for x, y in dirs}
    return sorted(dirs)


# injective int maps of the plane into 3D, each with a unit vector off its
# image; the first puts a coordinate that is no pivot first
_EMBEDDINGS = (
    (lambda p: (0, p[0], p[1]), (1, 0, 0)),
    (lambda p: (p[0], p[1], p[0] - p[1]), (0, 0, 1)),
)


@settings(max_examples=200, deadline=None)
@given(
    _direction_sets(),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
)
def test_min_steps_matches_brute_force(dirs, counts, noise):
    # membership in the cone's semigroup: a decomposition exists exactly
    # where the brute-force search finds a least step count
    v = tuple(sum(c * d[k] for c, d in zip(counts, dirs)) + noise[k] for k in range(2))
    expected = _brute_min_steps(v, dirs) is not None
    assert _cone(tuple(dirs)).member(v) == expected
    # the same set in 3D: the plane's image, then a point off it
    for embed, off in _EMBEDDINGS:
        lifted = _cone(tuple(map(embed, dirs)))
        assert lifted.member(embed(v)) == expected
        assert not lifted.member(tuple(map(sum, zip(embed(v), off))))

