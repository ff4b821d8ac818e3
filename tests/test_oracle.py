from fractions import Fraction

import pytest

from branchkit.errors import InternalError, ResourceError
from branchkit.formal import DeltaSeries
from branchkit.lattice import (
    Chart,
    apply_matrix,
    inner,
    rational_solve,
    weight,
    wadd,
    wneg,
    wscale,
)
from branchkit.oracle import (
    OracleConfig,
    _kernel_cosets,
    check_antisymmetry,
    compact_quotient_weights,
    extract_multiplicities,
    kernel_roots,
    on_chart,
    restriction_multiset,
    restriction_series,
    torus_restriction_sides,
    verify_closed_form,
    weyl_polynomial,
)
from branchkit.quaternionic import decompose_parameter, quaternionic_context
from branchkit.specialcases import sp1q_context, sp1q_restriction_series
from branchkit.rootsystems import coset_reps, weyl_generate

CFG = OracleConfig(step_bound=8)


def test_kernel_roots_g2_empty(g2):
    assert kernel_roots(g2) == ()


def test_kernel_roots_f4_short_a2(f44):
    kernel = kernel_roots(f44)
    assert len(kernel) == 3  # a short A2 subsystem
    for g in kernel:
        assert inner(f44.form, g, f44.alpha) == 0
        assert inner(f44.form, g, f44.beta) == 0


def test_kernel_roots_su23(su23):
    assert len(kernel_roots(su23)) == 1


def test_weyl_polynomial_trivial_cases(g2, su23):
    assert weyl_polynomial(g2, weight([7, -2, 5])) == 1  # empty kernel
    from branchkit.rootsystems import half_sum

    rho_z = half_sum(su23.form.dim, su23.kernel_positive)
    assert weyl_polynomial(su23, rho_z) == 1


def test_weyl_polynomial_linear_in_su23(su23):
    (kernel_root,) = su23.kernel_positive
    sigma = wscale(3, kernel_root)
    assert weyl_polynomial(su23, sigma) == 3 * weyl_polynomial(su23, kernel_root)


def test_restriction_multiset_g2(g2):
    elements = weyl_generate(g2.form, g2.k2_factor.simple)
    identity = elements[0]
    ms = restriction_multiset(g2, identity, flip=False)
    a1 = weight([1, -1, 0])
    assert ms == {g2.fw1: 1, g2.fw2: 1, a1: 1}
    flipped = restriction_multiset(g2, identity, flip=True)
    assert flipped == {wneg(g2.fw1): 1, wneg(g2.fw2): 1, a1: 1}


def test_restriction_multiset_weyl_invariance(so44):
    elements = weyl_generate(so44.form, so44.k2_factor.simple)
    reference = restriction_multiset(so44, elements[0], flip=False)
    quotient_total = sum(compact_quotient_weights(so44).values())
    assert sum(reference.values()) == 2 * (so44.d - 1) + quotient_total
    assert reference[so44.fw1] == so44.d - 1
    assert reference[so44.fw2] == so44.d - 1
    for e in elements:
        assert restriction_multiset(so44, e, flip=False) == reference


def test_quotient_weights_single_direction(su22, so44, f44):
    for ctx in (su22, so44, f44):
        quotient = compact_quotient_weights(ctx)
        assert len(quotient) == 1  # one ray
        ((direction, mult),) = quotient.items()
        assert inner(ctx.form, direction, ctx.beta) == 0


def test_torus_restriction_trivial_rep(g2):
    lam = wadd(g2.fw1, g2.beta)  # trivial k2 representation
    lhs, rhs = torus_restriction_sides(g2, lam, CFG)
    zero = rhs.chart.to_point(weight([0, 0, 0]))
    assert lhs.coeffs == {zero: 1}
    assert rhs.coefficient(zero) == 1
    for x in rhs.coeffs:
        if x != zero and rhs.certain_at(x):
            assert rhs.coeffs[x] == 0 or x == zero


def test_torus_restriction_string(g2):
    lam = wadd(wscale(3, g2.fw1), g2.beta)  # 3-dimensional k2 representation
    lhs, rhs = torus_restriction_sides(g2, lam, OracleConfig(step_bound=10))
    a1 = weight([1, -1, 0])
    point = rhs.chart.to_point
    assert lhs.coeffs == {point(wneg(a1)): 1, point(weight([0, 0, 0])): 1, point(a1): 1}
    for x in set(lhs.coeffs) | set(rhs.coeffs):
        got = rhs.coefficient(x)
        if got is not None:
            assert got == lhs.coeffs.get(x, 0)


def test_torus_identity_checks_the_coset_bound(g2):
    # the torus identity runs the same coset loop, and the same bound check,
    # as the branching series; g2_2 has 2 cosets
    lam = wadd(wscale(3, g2.fw1), g2.beta)
    assert len(_kernel_cosets(g2)) == 2
    with pytest.raises(ResourceError, match="exceeds the oracle bound 1; "):
        torus_restriction_sides(g2, lam, OracleConfig(step_bound=4, coset_bound=1))
    lhs, rhs = torus_restriction_sides(g2, lam, OracleConfig(step_bound=4, coset_bound=2))
    assert lhs.coeffs


def test_weyl_polynomial_reflection_invariance(su23):
    # the summand identity: the polynomial only sees the beta-orthogonal part
    lam = weight([5, 3, 1, 0, -4])
    lam1, lam2 = decompose_parameter(su23, lam)
    elements = weyl_generate(su23.form, su23.k2_factor.simple)
    for e in elements[:6]:
        wlam = apply_matrix(e.matrix, lam)
        wlam2 = apply_matrix(e.matrix, lam2)
        assert weyl_polynomial(su23, wlam) == weyl_polynomial(su23, wlam2)
        flipped = apply_matrix(su23.s_beta, wlam)
        assert weyl_polynomial(su23, flipped) == weyl_polynomial(su23, wlam2)


def test_restriction_series_antisymmetry(g2):
    lam = wadd(wscale(2, g2.fw1), g2.beta)
    series = restriction_series(g2, lam, CFG)
    assert check_antisymmetry(g2, series) == []
    chart = series.chart
    for p in series.coeffs:
        x = chart.to_weight(p)
        assert inner(g2.form, x, g2.beta) != 0
        mirror = chart.to_point(apply_matrix(g2.s_beta, x))
        got = series.coefficient(mirror)
        if got is not None and series.certain_at(p):
            assert got == -series.coeffs[p]


def test_extract_multiplicities_synthetic():
    ctx = quaternionic_context("g2_2")
    mu = wadd(wscale(2, ctx.beta), ctx.fw1)
    mirror = apply_matrix(ctx.s_beta, mu)
    chart = Chart([mu, mirror])
    series = on_chart(chart, {mu: 1, mirror: -1})
    table = extract_multiplicities(ctx, series)
    assert table.entries == {mu: 1}
    empty = extract_multiplicities(ctx, DeltaSeries({}, (), chart))
    assert empty.entries == {}


def test_verify_closed_form_agrees(su22):
    report = verify_closed_form(su22, weight([4, 2, 0, -3]), CFG)
    assert report.agree
    assert report.compared > 20
    assert report.mismatches == ()


def test_oracle_rejects_large_forms():
    ctx = quaternionic_context("e6_2")
    lam = ctx.psi.rho
    with pytest.raises(ResourceError):
        restriction_series(ctx, lam, OracleConfig(step_bound=4, coset_bound=16))


@pytest.mark.parametrize("label,cosets", [("e6_2", 20), ("e7_m5", 32), ("e8_m24", 56)])
def test_verify_closed_form_exceptional(label, cosets):
    ctx = quaternionic_context(label)
    assert len(_kernel_cosets(ctx)) == cosets
    report = verify_closed_form(ctx, ctx.psi.rho, OracleConfig(step_bound=4))
    assert report.agree
    assert report.compared >= 15


def _context(label):
    name, _, q = label.partition(":")
    return sp1q_context(int(q)) if name == "sp1_q" else quaternionic_context(label)


def _coset_terms(ctx, cosets, lam):
    """Sorted (q_u(w lam), sign * varpi(w lam), multiset) over the cosets: what
    a representative contributes to the coset series."""
    terms = []
    for w in cosets:
        wlam = apply_matrix(w.matrix, lam)
        ms = restriction_multiset(ctx, w, flip=False)
        terms.append((ctx.q_u(wlam), w.sign * weyl_polynomial(ctx, wlam), tuple(sorted(ms.items()))))
    return sorted(terms)


@pytest.mark.parametrize("label", [
    "g2_2", "su2_n:1", "su2_n:2", "so4_n:3", "so4_n:4", "so4_n:6", "f4_4", "sp1_q:2", "sp1_q:3",
])
def test_kernel_cosets_match_group_partition(label):
    ctx = _context(label)
    lam = ctx.sigma.rho if label.startswith("sp1_q") else ctx.psi.rho
    orbit = _kernel_cosets(ctx)
    reference = coset_reps(
        weyl_generate(ctx.form, ctx.k2_factor.simple), ctx.kernel_positive, ctx.form
    )
    assert len(orbit) == len(reference)
    assert _coset_terms(ctx, orbit, lam) == _coset_terms(ctx, reference, lam)


def test_verify_closed_form_odd_orthogonal_realization():
    # so(4,3) realizes in type B with a short compact root; both integral and
    # half-integral parameters go through
    ctx = quaternionic_context("so4_n:3")
    assert ctx.d == 3
    for coords in (("9/2", "5/2", "3/2"), (4, 2, 1)):
        report = verify_closed_form(ctx, weight(coords), OracleConfig(step_bound=6))
        assert report.agree and report.compared > 10


def test_closed_form_available_beyond_oracle():
    # the closed form needs no Weyl enumeration: it works at any cutoff
    # without the oracle, here with the trivial compact-factor representation
    from branchkit.quaternionic import branching_table
    from math import comb

    ctx = quaternionic_context("e6_2")
    lam = ctx.psi.rho
    table = branching_table(ctx, lam, cutoff=3)
    d = ctx.d
    lam1, _ = decompose_parameter(ctx, lam)
    base = wadd(lam1, wscale(Fraction(d - 1, 2), ctx.beta))
    for p in range(3):
        for q in range(3 - p):
            mu = wadd(base, wadd(wscale(p, ctx.fw1), wscale(q, ctx.fw2)))
            assert table.entries[mu] == comb(p + d - 2, d - 2) * comb(q + d - 2, d - 2)


def _series(label, coords):
    ctx = _context(label)
    if label.startswith("sp1_q"):
        return ctx, sp1q_restriction_series(ctx, weight(coords), CFG)
    lam = wadd(wscale(2, ctx.fw1), ctx.beta) if coords is None else weight(coords)
    return ctx, restriction_series(ctx, lam, CFG)


@pytest.mark.parametrize("label,coords", [
    ("g2_2", None),
    ("so4_n:4", (5, 3, 2, 1)),
    ("sp1_q:2", (5, 2, 1)),
])
def test_chart_round_trips_series_points(label, coords):
    ctx, series = _series(label, coords)
    chart = series.chart
    assert len(chart.coords) == 2
    for p in series.coeffs:
        w = chart.to_weight(p)
        assert ctx.q_u(w) == w  # on the subgroup torus
        assert chart.to_point(w) == p
    w = chart.to_weight(next(iter(series.coeffs)))
    half_step = wadd(w, wscale(Fraction(1, 2 * chart.scale), chart.rows[0]))
    with pytest.raises(InternalError):
        chart.to_point(half_step)  # non-integral chart coordinate
    off = next(k for k in range(len(w)) if k not in chart.coords)
    off_plane = tuple(x + (k == off) for k, x in enumerate(w))
    with pytest.raises(InternalError):
        chart.to_point(off_plane)  # same chart coordinates, off the span


@pytest.mark.parametrize("label,coords", [("g2_2", None), ("so4_n:4", (5, 3, 2, 1))])
def test_chart_linear_map_matches_fraction_path(label, coords):
    ctx, series = _series(label, coords)
    chart = series.chart
    mirror = chart.linear_map(ctx.s_beta)
    for p in series.coeffs:
        want = chart.to_point(apply_matrix(ctx.s_beta, chart.to_weight(p)))
        assert tuple(sum(a * x for a, x in zip(row, p)) for row in mirror) == want
    half = tuple(tuple(x / 2 for x in row) for row in ctx.s_beta)
    with pytest.raises(InternalError):
        chart.linear_map(half)  # not integral on the chart lattice
    dim = len(ctx.s_beta)
    unit = [tuple(Fraction(i == k) for i in range(dim)) for k in range(dim)]
    k = next(k for k in range(dim) if rational_solve(list(chart.rows), unit[k]) is None)
    c = chart.coords[0]
    off = tuple(tuple(Fraction(i == k and j == c) for j in range(dim)) for i in range(dim))
    with pytest.raises(InternalError):
        chart.linear_map(off)  # w -> w[c] e_k sends the first chart row off the span
