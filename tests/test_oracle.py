import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit import formal
from branchkit.acceptance import _AC4_PLAN, _quaternionic_parameters
from branchkit.errors import InternalError
from branchkit.formal import (
    DeltaSeries,
    ProductSum,
    ValidityRegion,
    convolve_multiset,
    product_region,
    product_size,
)
from branchkit.lattice import (
    coroot_pairing,
    inner,
    int_point,
    rational_solve,
    reflect,
    reflection_matrix,
    weight,
    wadd,
    wneg,
    wscale,
)
from branchkit.oracle import (
    OracleConfig,
    _coset_series,
    _kernel_cosets,
    _positive_side,
    check_antisymmetry,
    compare,
    extract_multiplicities,
    oracle_plan,
    restriction_series,
    torus_restriction_sides,
    verify_closed_form,
)
from branchkit.quaternionic import (
    BranchingTable,
    branching_table,
    decompose_parameter,
    quaternionic_context,
    validate_small_dominant,
)
from branchkit.specialcases import (
    Sp1qContext,
    sp1q_branching_table,
    sp1q_context,
    sp1q_decompose,
    sp1q_restriction_series,
    sp1q_validate,
)
from branchkit.repweights import hc_to_highest_weight, weyl_dimension
from branchkit.rootsystems import coset_reps, simple_elements, weyl_generate
from oracle_reference import (
    q_u,
    q_u_k2,
    reference_compact_quotient_weights,
    apply_matrix,
    coset_elements,
    coset_terms,
    kernel_roots,
    reference_compare,
    reference_extract,
    reference_min_steps,
    reference_side,
    reference_series,
    reference_window,
    region_points,
    restriction_multiset,
    weyl_polynomial,
)

CFG = OracleConfig(step_bound=8)


def _plan_multiset(ctx, flip: bool, torus: bool = False) -> dict:
    """The plan's multiset of one flip, as weights."""
    kind = oracle_plan(ctx).torus if torus else oracle_plan(ctx).series
    return {kind.chart.to_weight(p): m for p, m in kind.multisets[flip]}


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
    from oracle_reference import half_sum

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
    assert _plan_multiset(g2, False) == ms and _plan_multiset(g2, True) == flipped


def test_restriction_multiset_weyl_invariance(so44):
    elements = weyl_generate(so44.form, so44.k2_factor.simple)
    reference = restriction_multiset(so44, elements[0], flip=False)
    quotient_total = sum(reference_compact_quotient_weights(so44).values())
    assert sum(reference.values()) == 2 * (so44.d - 1) + quotient_total
    assert reference[so44.fw1] == so44.d - 1
    assert reference[so44.fw2] == so44.d - 1
    for e in elements:
        assert restriction_multiset(so44, e, flip=False) == reference
    assert _plan_multiset(so44, False) == reference
    assert _plan_multiset(so44, False, torus=True) == reference_compact_quotient_weights(so44)


def test_quotient_weights_single_direction(su22, so44, f44):
    for ctx in (su22, so44, f44):
        quotient = reference_compact_quotient_weights(ctx)
        assert len(quotient) == 1  # one ray
        ((direction, mult),) = quotient.items()
        assert inner(ctx.form, direction, ctx.beta) == 0


def test_torus_restriction_trivial_rep(g2):
    lam = wadd(g2.fw1, g2.beta)  # trivial k2 representation
    lhs, rhs = torus_restriction_sides(g2, lam, CFG)
    zero = rhs.chart.to_point(weight([0, 0, 0]))
    assert lhs == {zero: 1}
    assert rhs.coefficient(zero) == 1
    for x in rhs.coeffs:
        if x != zero and rhs.certain_at(x):
            assert rhs.coeffs[x] == 0 or x == zero


def test_torus_restriction_string(g2):
    lam = wadd(wscale(3, g2.fw1), g2.beta)  # 3-dimensional k2 representation
    lhs, rhs = torus_restriction_sides(g2, lam, OracleConfig(step_bound=10))
    a1 = weight([1, -1, 0])
    point = rhs.chart.to_point
    assert lhs == {point(wneg(a1)): 1, point(weight([0, 0, 0])): 1, point(a1): 1}
    for x in set(lhs) | set(rhs.coeffs):
        got = rhs.coefficient(x)
        if got is not None:
            assert got == lhs.get(x, 0)


def test_weyl_polynomial_reflection_invariance(su23):
    # the summand identity: the polynomial only sees the beta-orthogonal part
    lam = weight([5, 3, 1, 0, -4])
    lam1, lam2 = decompose_parameter(su23, lam)
    elements = weyl_generate(su23.form, su23.k2_factor.simple)
    for e in elements[:6]:
        wlam = apply_matrix(e.matrix, lam)
        wlam2 = apply_matrix(e.matrix, lam2)
        assert weyl_polynomial(su23, wlam) == weyl_polynomial(su23, wlam2)
        flipped = apply_matrix(reflection_matrix(su23.beta), wlam)
        assert weyl_polynomial(su23, flipped) == weyl_polynomial(su23, wlam2)


def test_check_antisymmetry_e6_2():
    # on the e6_2 series chart S_b is half an integer matrix, yet every
    # series point mirrors to a lattice point
    ctx = quaternionic_context("e6_2")
    series = restriction_series(ctx, ctx.psi.rho, OracleConfig(step_bound=3))
    assert len(series.coeffs) == 272
    assert check_antisymmetry(ctx, series) == []


def test_check_antisymmetry_reports_only_certified_wall_points(g2):
    # a coefficient on the S_b wall, where the pairing with beta is 0, is a
    # problem only where the contract certifies it: base p - 2d certifies p
    # within 2 steps of d, not within 0
    chart = oracle_plan(g2).series.chart
    p, d = (0, 1), (1, 0)
    assert inner(g2.form, chart.to_weight(p), g2.beta) == 0
    base = (p[0] - 2 * d[0], p[1] - 2 * d[1])
    certified = DeltaSeries({p: 1}, (ValidityRegion(base, ((d, 1),), 2),), chart)
    uncertified = DeltaSeries({p: 1}, (ValidityRegion(base, ((d, 1),), 0),), chart)
    assert any(p) and certified.certain_at(p) and not uncertified.certain_at(p)
    assert ("wall", chart.to_weight(p), 1) in check_antisymmetry(g2, certified)
    assert not any(kind == "wall" for kind, _, _ in check_antisymmetry(g2, uncertified))


def test_restriction_series_antisymmetry(g2):
    lam = wadd(wscale(2, g2.fw1), g2.beta)
    series = restriction_series(g2, lam, CFG)
    assert check_antisymmetry(g2, series) == []
    chart = series.chart
    for p in series.coeffs:
        x = chart.to_weight(p)
        assert inner(g2.form, x, g2.beta) != 0
        mirror = chart.to_point(apply_matrix(reflection_matrix(g2.beta), x))
        got = series.coefficient(mirror)
        if got is not None and series.certain_at(p):
            assert got == -series.coeffs[p]


def test_extract_multiplicities_synthetic():
    ctx = quaternionic_context("g2_2")
    mu = wadd(wscale(2, ctx.beta), ctx.fw1)
    mirror = apply_matrix(reflection_matrix(ctx.beta), mu)
    chart = oracle_plan(ctx).series.chart
    series = DeltaSeries({chart.to_point(mu): 1, chart.to_point(mirror): -1}, (), chart)
    table = extract_multiplicities(ctx, series)
    assert table.entries == {mu: 1}
    empty = extract_multiplicities(ctx, DeltaSeries({}, (), chart))
    assert empty.entries == {}


def test_verify_closed_form_agrees(su22):
    report = verify_closed_form(su22, weight([4, 2, 0, -3]), CFG)
    assert report.agree
    assert report.compared > 20
    assert report.mismatches == ()


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
        terms.append((q_u(ctx, wlam), w.sign * weyl_polynomial(ctx, wlam), tuple(sorted(ms.items()))))
    return sorted(terms)


@pytest.mark.parametrize("label", [
    "g2_2", "su2_n:1", "su2_n:2", "su2_n:3", "su2_n:4", "su2_n:5", "so4_n:3", "so4_n:4",
    "so4_n:5", "so4_n:6", "f4_4", "sp1_q:2", "sp1_q:3", "sp1_q:4",
])
def test_kernel_cosets_match_group_partition(label):
    ctx = _context(label)
    lam = ctx.sigma.rho if label.startswith("sp1_q") else ctx.psi.rho
    orbit = coset_elements(ctx)
    reference = coset_reps(
        weyl_generate(ctx.form, ctx.k2_factor.simple), ctx.kernel_positive, ctx.form
    )
    assert len(orbit) == len(reference) == len(_kernel_cosets(ctx))
    assert _coset_terms(ctx, orbit, lam) == _coset_terms(ctx, reference, lam)


def test_kernel_cosets_reject_an_inexact_vector():
    # on f4_4 (D = 2) the int point (1, 0, 0, 0) is e1 / 2, which pairs to a
    # half with a simple coroot of k2, so its images would leave the int
    # points; e1 itself pairs integrally and is carried
    ctx = quaternionic_context("f4_4")
    assert ctx.rd.points[0] == 2
    with pytest.raises(InternalError, match="non-integrally"):
        _kernel_cosets(ctx, ((1, 0, 0, 0),))
    cosets = _kernel_cosets(ctx, ((2, 0, 0, 0),))
    assert len(cosets) == len(_kernel_cosets(ctx))
    assert all(len(images) == 2 for _, images in cosets)


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


# ---------------------------------------------------------------------------
# the integer coset plan against the Fraction coset loop it replaced


REFERENCE_FORMS = (
    "g2_2", "su2_n:2", "su2_n:3", "su2_n:4", "su2_n:5", "so4_n:3", "so4_n:4", "so4_n:5",
    "so4_n:6", "f4_4", "e6_2", "e7_m5", "e8_m24", "sp1_q:2", "sp1_q:3", "sp1_q:4",
)


def _family_rules(ctx):
    """Reference (q_u, q_u_k2, positive h_roots, side_roots) of each family,
    stated in its own terms rather than by (beta, w_line): sp(1, q) keeps
    coordinates 0 and 1, and coordinate 1; a quaternionic form projects onto
    beta and onto the line of beta - 2 alpha."""
    if isinstance(ctx, Sp1qContext):
        e0, e1 = weight([1] + [0] * ctx.q), weight([0, 1] + [0] * (ctx.q - 1))
        pieces = [wscale(2, e0), wscale(2, e1), wadd(e0, e1), wadd(e0, wneg(e1))]
        return (lambda v: tuple(x if i < 2 else Fraction(0) for i, x in enumerate(v)),
                lambda v: tuple(x if i == 1 else Fraction(0) for i, x in enumerate(v)),
                pieces, (ctx.beta, wscale(2, e1)))

    def onto(v, g):
        return wscale(inner(ctx.form, v, g) / inner(ctx.form, g, g), g)

    line = wadd(ctx.beta, wscale(-2, ctx.alpha))
    pieces = [ctx.alpha, ctx.beta, wadd(ctx.beta, wneg(ctx.alpha))]
    return (lambda v: wadd(onto(v, ctx.beta), onto(v, line)), lambda v: onto(v, line),
            pieces, (ctx.beta,))


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_shared_context_keeps_the_family_rules(label):
    ctx = _context(label)
    rule, rule_k2, pieces, sides = _family_rules(ctx)
    # the context's int pairings (x, b), (x, w) give the same projections
    b, w, bb, ww = ctx.torus_points
    scale = ctx.rd.points[0]
    for g in ctx.rd.roots:
        x = int_point(g, scale)
        on_w = tuple(Fraction(sum(map(mul, x, w)) * y, scale * ww) for y in w)
        on_b = tuple(Fraction(sum(map(mul, x, b)) * y, scale * bb) for y in b)
        assert (wadd(on_b, on_w), on_w) == (rule(g), rule_k2(g)), g
        assert (q_u(ctx, g), q_u_k2(ctx, g)) == (rule(g), rule_k2(g)), g
    assert frozenset(ctx.h_roots) == frozenset(pieces + [wneg(g) for g in pieces])
    assert ctx.side_roots == sides


def _torus_vectors(ctx):
    """D beta and D w_line, for D the least common denominator of the roots:
    a weight's series point is the chart's scale times its pairings with
    them, and its torus point with the second alone."""
    d = lcm(1, *(x.denominator for g in ctx.rd.roots for x in g))
    return wscale(d, ctx.beta), wscale(d, ctx.w_line)


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_pairing_chart_round_trips_plan_points(label):
    # every direction of the plan's multisets is the chart's scale times the
    # Fraction pairings of its weight with the kind's vectors, the weight lies
    # on the kind's torus, and to_point takes it back; half a step off the
    # lattice, or a step off the span, raises
    ctx = _context(label)
    rule, rule_k2, _, _ = _family_rules(ctx)
    b, w = _torus_vectors(ctx)
    plan = oracle_plan(ctx)
    dim = ctx.form.dim
    units = [tuple(Fraction(i == k) for i in range(dim)) for k in range(dim)]
    for kind, project, vectors in ((plan.series, rule, (b, w)), (plan.torus, rule_k2, (w,))):
        chart = kind.chart
        for items in kind.multisets:
            for p, _ in items:
                mu = chart.to_weight(p)
                assert project(mu) == mu
                assert tuple(chart.scale * inner(ctx.form, mu, v) for v in vectors) == p
                assert chart.to_point(mu) == p
        mu = chart.to_weight(kind.multisets[0][0][0])
        for v in vectors:
            half = wscale(Fraction(1, 2 * chart.scale * inner(ctx.form, v, v)), v)
            with pytest.raises(InternalError, match="off the chart lattice"):
                chart.to_point(wadd(mu, half))  # a half-integral coordinate
        off = next(u for u in units if project(u) != u)
        with pytest.raises(InternalError, match="off the chart lattice"):
            chart.to_point(wadd(mu, off))  # off the span


def _family_mirrors(ctx):
    """The series symmetries of each family as products of Fraction
    reflections: S_b, and for sp(1, q) also the sign flip of e1 and both."""
    if isinstance(ctx, Sp1qContext):
        e1 = weight([0, 1] + [0] * (ctx.q - 1))
        return [(ctx.beta,), (e1,), (ctx.beta, e1)]
    return [(ctx.beta,)]


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_mirror_sign_flips_match_fraction_reflections(label):
    # each mirror of the context, a sign flip of the series coordinates, is
    # the product of its family's reflections on the weights of the series
    # chart, with the sign (-1)^(number of reflections); S_b comes first
    ctx = _context(label)
    chart = oracle_plan(ctx).series.chart
    mirrors = _family_mirrors(ctx)
    assert len(ctx.mirrors) == len(mirrors) and ctx.mirrors[0] == ((-1, 1), -1)
    points = [(1, 0), (0, 1), (3, -2)] + [p for items in oracle_plan(ctx).series.multisets
                                          for p, _ in items]
    for (signs, sign), roots in zip(ctx.mirrors, mirrors):
        assert sign == (-1) ** len(roots)
        for p in points:
            image = chart.to_weight(p)
            for g in roots:
                image = reflect(ctx.form, image, g)
            assert chart.to_point(image) == tuple(map(mul, signs, p)), (roots, p)


@pytest.mark.parametrize("label", REFERENCE_FORMS + ("sp1_q:5",))
def test_plan_flipped_terms_are_the_s_b_mirrors(label):
    # no request checks S_b antisymmetry per point: it holds by the plan's
    # construction.  Per coset the unflipped term comes first, then its S_b
    # mirror, which negates the b-row of the map and the factor and keeps the
    # w-row and the kernel covectors; the flipped multiset is the unflipped
    # one with its first coordinate negated
    ctx = _context(label)
    series = oracle_plan(ctx).series
    assert series.terms and len(series.terms) % 2 == 0
    for (maps, kernel, factor, i), flipped in zip(series.terms[::2], series.terms[1::2]):
        assert i == 0
        assert flipped == ((tuple(-x for x in maps[0]), maps[1]), kernel, -factor, 1)
    unflipped = dict(series.multisets[0])
    assert dict(series.multisets[1]) == {(-p0, p1): m for (p0, p1), m in unflipped.items()}
    # the closed form's Heaviside directions, rescaled to the series chart,
    # are directions of the unflipped multiset with at least their powers
    k, r = divmod(series.chart.scale, ctx.table_chart.scale)
    assert r == 0
    for (d0, d1), power in ctx.heaviside:
        assert unflipped[(k * d0, k * d1)] >= power


def _system(ctx):
    """The positive system a parameter of the family must be dominant for."""
    return ctx.sigma if isinstance(ctx, Sp1qContext) else ctx.psi


def _fundamental_weights(ctx):
    """Weights w_i in the span of the system's simple roots a_j with
    <w_i, a_j-check> = delta_ij."""
    simple = simple_elements(_system(ctx).chosen, ctx.form)
    n = len(simple)
    columns = [tuple(coroot_pairing(ctx.form, a, b) for b in simple) for a in simple]
    out = []
    for i in range(n):
        x = rational_solve(columns, tuple(Fraction(i == j) for j in range(n)))
        out.append(tuple(sum(c * a[k] for c, a in zip(x, simple)) for k in range(ctx.form.dim)))
    return out


def _dominant(ctx, coeffs):
    """rho + sum c_i w_i over the system's fundamental weights."""
    lam = _system(ctx).rho
    for c, w in zip(coeffs, _fundamental_weights(ctx)):
        lam = wadd(lam, wscale(c, w))
    return lam


def _off_window_points(points, rng, count=300):
    """Up to count points, drawn by rng, of the lattice of the points' gcd
    stride in their bounding box widened by a quarter of its width on each
    side: most of them lie off every window."""
    stride = gcd(*(x for p in points for x in p))
    ranges = []
    for k in range(len(next(iter(points)))):
        low, high = min(p[k] for p in points), max(p[k] for p in points)
        reach = (high - low) // 4 + 2 * stride
        ranges.append(range((low - reach) // stride, (high + reach) // stride + 1))
    box = [tuple(stride * i for i in q) for q in product(*ranges)]
    return set(rng.sample(box, min(count, len(box))))


def _check_against_reference(ctx, lam, step_bound):
    """Both kinds of coset sum at lam equal the Fraction reference point for
    point, with identical regions, on the plan's chart; the reference's
    terms span that chart's span, and each of their bases and directions is
    one of its points (``reference_series``).  At every point of the
    reference's support and of each term's window, at points off the
    windows drawn from a box around them, and on the branching series at
    every mirror of those (the points ``check_extracted`` and
    ``check_antisymmetry`` query), the per-point verdict and coefficient
    equal those of the dense reference series; the candidate points are
    exactly the union of the windows, and the nonzero points those of them
    with a nonzero window sum.  Extraction, and comparison with the closed
    table where its k2-type has dimension at most 2000, equal the dense
    reference's, on a series read cold."""
    sp1q = isinstance(ctx, Sp1qContext)
    (sp1q_validate if sp1q else validate_small_dominant)(ctx, lam)
    lam2 = (sp1q_decompose if sp1q else decompose_parameter)(ctx, lam)[1]
    cfg = OracleConfig(step_bound=step_bound)
    rng = random.Random(repr((ctx.rd.label, lam, step_bound)))
    for torus, mu in ((False, lam), (True, lam2)):
        series = _coset_series(ctx, mu, cfg, torus=torus)
        terms = coset_terms(ctx, mu, torus)
        chart = series.chart
        spanned = list(dict.fromkeys(
            [base for _, base, _ in terms] + [d for _, _, ms in terms for d in ms]))
        vectors = _torus_vectors(ctx)[1:] if torus else _torus_vectors(ctx)
        assert all(rational_solve(spanned, v) is not None for v in vectors)
        coeffs, regions = reference_series(terms, chart, step_bound)
        reference = DeltaSeries(coeffs, regions, chart)
        if not torus:
            cold = _coset_series(ctx, mu, cfg)
            assert (extract_multiplicities(ctx, cold).entries
                    == reference_extract(ctx, reference).entries)
        if not torus and weyl_dimension(hc_to_highest_weight(lam2, ctx.k2_factor),
                                        ctx.k2_factor) <= 2000:
            closed = (sp1q_branching_table if sp1q else branching_table)(ctx, lam, step_bound)
            assert _report(compare(ctx, _coset_series(ctx, mu, cfg), closed)) == _report(
                reference_compare(ctx, reference, closed))
        # per-point certification and values, before the dense sum exists
        windows = set().union(*map(region_points, regions))
        points = windows | set(coeffs) | _off_window_points(windows, rng)
        if not torus:
            points |= {tuple(map(mul, signs, p)) for p in points for signs, _ in ctx.mirrors}
        for p in points:
            assert series.certain_at(p) == reference.certain_at(p), p
            assert series.coefficient(p) == reference.coefficient(p), p
        assert set(series.candidate_points()) == windows
        window_sums = {}
        for (coeff, base, ms), region in zip(terms, regions):
            b = chart.to_point(base)
            values = convolve_multiset({chart.to_point(d): m for d, m in ms.items()},
                                       step_bound).coeffs
            for p in region_points(region):
                window_sums[p] = window_sums.get(p, 0) + coeff * values[tuple(map(sub, p, b))]
        assert list(series.nonzero_points()) == [
            p for p in series.candidate_points() if window_sums[p]]
        assert series.coeffs == coeffs
        assert series.regions == regions


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_integer_plan_matches_fraction_reference(label):
    ctx = _context(label)
    rng = random.Random(label)
    n = len(_fundamental_weights(ctx))
    lams = [_dominant(ctx, ())] + [_dominant(ctx, [rng.randrange(3) for _ in range(n)])
                                   for _ in range(3)]
    if label == "so4_n:3":
        assert any(x.denominator == 2 for lam in lams for x in lam)  # half-integral
    for lam in lams:
        _check_against_reference(ctx, lam, step_bound=3)


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(["g2_2", "su2_n:2"]),
       coeffs=st.lists(st.integers(0, 5), min_size=3, max_size=3),
       step_bound=st.integers(1, 6))
def test_integer_plan_matches_fraction_reference_property(label, coeffs, step_bound):
    ctx = quaternionic_context(label)
    _check_against_reference(ctx, _dominant(ctx, coeffs), step_bound)


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_plan_product_sizes_are_pinned(label):
    """At step bound 4, every Heaviside product of the plan's multisets runs
    through product_size grid points and keeps a fixed support: (405, 149)
    on the rank-2 series products of the quaternionic forms, (25, 25) on
    those of sp(1,q) and (5, 5) on the rank-1 torus products.  Both numbers
    follow from the cone's functional, through the factors' expansion bounds."""
    ctx = _context(label)
    plan = oracle_plan(ctx)
    series = (25, 25) if isinstance(ctx, Sp1qContext) else (405, 149)
    for kind, expected in ((plan.series, series), (plan.torus, (5, 5))):
        for items in kind.multisets:
            ms = dict(items)
            assert (product_size(ms, 4), len(convolve_multiset(ms, 4).coeffs)) == expected, items


# ---------------------------------------------------------------------------
# the covector bound that certifies a term off its window without a search


def _plan_products(label):
    """The plan's multisets of both kinds, as sorted items of chart points."""
    plan = oracle_plan(_context(label))
    return [items for kind in (plan.series, plan.torus) for items in kind.multisets]


def _check_covector_bound(items, step_bound, offsets):
    """On a sum of one term, the product of items based at the origin, at
    each offset x: x is in the term's window exactly when its minimal step
    count over the product's directions is at most the step bound, and
    where the covector bound lets the term skip x, x has no decomposition
    at all.  Returns the number of offsets the bound skipped."""
    dim = len(items[0][0])
    heaviside = convolve_multiset(dict(items), step_bound)
    region = heaviside.regions[0]
    series = ProductSum((((0,) * dim, 1, 0),), (region,), Fraction(1), None)
    ((g, (bound,), _, _),) = series._bounds
    window = set(series.candidate_points())
    skipped = 0
    for x in offsets:
        steps = reference_min_steps([d for d, _ in items], tuple(map(sub, x, region.base)))
        assert (x in window) == (steps is not None and steps <= step_bound), (items, x)
        if x not in window and sum(map(mul, g, x)) < bound:
            assert steps is None, (items, x)
            skipped += 1
    return skipped


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_covector_bound_is_sound_on_plan_products(label):
    # every product of the plan at step bounds 1 to 6 (sp(1,q): to 10), on
    # the lattice of the directions' gcd stride through the base, in the
    # window's bounding box widened by two direction lengths on each side
    top = 10 if label.startswith("sp1_q") else 6
    for items in _plan_products(label):
        stride = gcd(*(x for d, _ in items for x in d))
        reach = 2 * max(abs(x) for d, _ in items for x in d)
        for n in range(1, top + 1):
            region = convolve_multiset(dict(items), n).regions[0]
            base, window = region.base, region_points(region)
            ranges = [range((min(p[k] for p in window) - reach - b) // stride,
                            (max(p[k] for p in window) + reach - b) // stride + 1)
                      for k, b in enumerate(base)]
            box = [tuple(b + stride * i for b, i in zip(base, q)) for q in product(*ranges)]
            assert window < set(box)
            assert _check_covector_bound(items, n, box) > 0


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(["g2_2", "su2_n:2", "sp1_q:2"]), data=st.data())
def test_covector_bound_is_sound_at_random_offsets(label, data):
    items = data.draw(st.sampled_from(_plan_products(label)))
    n = data.draw(st.integers(1, 10))
    reach = (n + 2) * max(abs(x) for d, m in items for x in d) * max(m for _, m in items)
    coordinate = st.integers(-reach, reach)
    offsets = data.draw(st.lists(st.tuples(*[coordinate] * len(items[0][0])),
                                 min_size=1, max_size=40))
    _check_covector_bound(items, n, offsets)


# ---------------------------------------------------------------------------
# semigroup membership, and one window enumeration per shape


_PLAN_FORMS = REFERENCE_FORMS + ("sp1_q:5",)


@pytest.mark.parametrize("label", _PLAN_FORMS)
def test_only_flipped_quaternionic_cones_keep_a_free_direction(label):
    # a direction that decomposes over the span pair adds no decomposition
    # (the quaternionic u + v), so membership in every other plan cone is
    # one exact solve
    ctx = _context(label)
    flipped = () if isinstance(ctx, Sp1qContext) else oracle_plan(ctx).series.multisets[1:]
    for items in _plan_products(label):
        free = formal._cone(tuple(d for d, _ in items)).free
        assert len(free) == (items in flipped), items


@pytest.mark.parametrize("label", _PLAN_FORMS)
def test_member_matches_reference_around_plan_windows(label):
    # at step bound 3, on the window's bounding box widened by two steps of
    # the longest direction, at half the directions' gcd stride, so that
    # points off their lattice are asked too
    for items in _plan_products(label):
        dirs = [d for d, _ in items]
        cone = formal._cone(tuple(dirs))
        region = product_region(dict(items), 3)
        offsets = [tuple(map(sub, p, region.base)) for p in formal._window(region)]
        stride = max(1, gcd(*(x for d in dirs for x in d)) // 2)
        reach = 2 * max(abs(x) for d in dirs for x in d)
        box = product(*(range(min(o[k] for o in offsets) - reach,
                              max(o[k] for o in offsets) + reach + 1, stride)
                        for k in range(len(dirs[0]))))
        verdicts = [(v, cone.member(v), reference_min_steps(dirs, v) is not None) for v in box]
        assert [v for v, got, want in verdicts if got != want] == [], items
        assert {got for _, got, _ in verdicts} == {True, False}
        # the one certification rule that ProductSum and DeltaSeries read:
        # in the brute-force window, or no decomposition at all
        window = region_points(region)
        points = [(tuple(map(add, region.base, v)), want) for v, _, want in verdicts]
        assert [p for p, want in points
                if region.certain_at(p) != (p in window or not want)] == [], items


@pytest.mark.parametrize("label", _PLAN_FORMS)
def test_both_flips_share_one_offsets_enumeration(label):
    # each flip's products, at two denominators, map one enumeration of the
    # shape (the directions over their gcd, coordinates signed to a
    # nonnegative sum) back to the reference window exactly
    flips = oracle_plan(_context(label)).series.multisets
    formal._window.cache_clear()
    formal._offsets.cache_clear()
    for n in (1, 4):
        for den in (1, 2):
            for items in flips:
                region = product_region({tuple(den * x for x in d): m for d, m in items}, n)
                assert formal._window(region) == reference_window(region), (items, den, n)
        assert formal._offsets.cache_info().currsize == 1 + (n == 4)


# ---------------------------------------------------------------------------
# windows enumerated to a covector level against the dense product


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_windows_equal_dense_reference_on_plan_products(label):
    # every product of the plan at step bounds 1 to 6 (sp(1,q): to 10)
    top = 10 if label.startswith("sp1_q") else 6
    for items in _plan_products(label):
        for n in range(1, top + 1):
            region = product_region(dict(items), n)
            assert formal._window(region) == reference_window(region), (items, n)


@st.composite
def _pointed_multisets(draw):
    """(multiset, step bound): distinct even directions, all positive on one
    covector, with multiplicities 1 to 4: of rank 1, 2 or 3 positive
    multiples of one vector in 1 or 2 coordinates, or of rank 2, 2 to 4 of
    them (mostly linearly dependent) in 2 coordinates or in 3, the third a
    fixed combination of the first two.  The step bound is lowered until
    the dense product stays small."""
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        u = draw(st.lists(small.filter(bool), min_size=1, max_size=2))
        dirs = [tuple(k * x for x in u)
                for k in draw(st.sets(st.integers(1, 3), min_size=2, max_size=3))]
    else:
        f = draw(st.tuples(small, small).filter(any))
        box = [d for d in product(range(-2, 3), repeat=2) if d[0] * f[0] + d[1] * f[1] > 0]
        first = draw(st.sampled_from(box))
        second = draw(st.sampled_from([d for d in box if d[0] * first[1] != d[1] * first[0]]))
        dirs = list(dict.fromkeys([first, second] + draw(st.lists(st.sampled_from(box),
                                                                  min_size=1, max_size=2))))
        if draw(st.booleans()):
            a, b = draw(small), draw(small)
            dirs = [(x, y, a * x + b * y) for x, y in dirs]
    ms = {tuple(2 * x for x in d): draw(st.integers(1, 4)) for d in dirs}
    n = draw(st.integers(1, 6))
    while n > 1 and product_size(ms, n) > 4000:
        n -= 1
    return ms, n


@settings(max_examples=120, deadline=None)
@given(case=_pointed_multisets())
def test_windows_equal_dense_reference_on_random_multisets(case):
    region = product_region(*case)
    assert formal._window(region) == reference_window(region)


# ---------------------------------------------------------------------------
# the positive side, once per context


_BOX = list(product(range(-12, 13), repeat=2))


@pytest.mark.parametrize("label", REFERENCE_FORMS)
def test_positive_side_equals_all_side_roots_test(label):
    ctx = _context(label)
    positive = _positive_side(ctx)
    reference = reference_side(ctx, oracle_plan(ctx).series.chart)
    assert positive is _positive_side(ctx)  # once per context
    assert any(map(positive, _BOX))
    assert [positive(p) for p in _BOX] == [reference(p) for p in _BOX]


# ---------------------------------------------------------------------------
# window-first extraction and comparison against the dense path they replaced


_AC4_CASES = [(label, lam) for label, count in _AC4_PLAN
              for lam in _quaternionic_parameters(label, count)[1]]
_SP1Q_CASES = [("sp1_q:2", (4, 2, 1)), ("sp1_q:2", (6, 4, 1)),
               ("sp1_q:3", (5, 3, 2, 1)), ("sp1_q:3", (7, 4, 2, 1))]


def _report(report):
    return report.agree, report.compared, report.mismatches


@pytest.mark.parametrize("label,lam,step_bound",
                         [(label, lam, 12) for label, lam in _AC4_CASES]
                         + [(label, weight(lam), 10) for label, lam in _SP1Q_CASES])
def test_extraction_and_comparison_match_dense_reference(label, lam, step_bound):
    ctx = _context(label)
    sp1q = isinstance(ctx, Sp1qContext)
    series = (sp1q_restriction_series if sp1q else restriction_series)(
        ctx, lam, OracleConfig(step_bound=step_bound))
    chart = series.chart
    dense = DeltaSeries(*reference_series(coset_terms(ctx, lam), chart, step_bound), chart)
    closed = (sp1q_branching_table if sp1q else branching_table)(ctx, lam, step_bound)
    table = extract_multiplicities(ctx, series)
    assert table.entries == reference_extract(ctx, dense).entries
    report = compare(ctx, series, closed)
    assert report.agree and report.compared >= 9
    assert _report(report) == _report(reference_compare(ctx, dense, closed))
    # a closed table that is wrong at two weights, missing a third and
    # carrying one more beyond its bound: the same mismatches, in weight order
    entries = dict(closed.entries)
    first, second, third = sorted(table.entries)[:3]
    entries[first] += 1
    entries[second] = 0
    del entries[third]
    beyond = max(closed.entries, key=lambda mu: coroot_pairing(ctx.form, mu, ctx.beta))
    entries[tuple(2 * x for x in beyond)] = 1
    wrong = BranchingTable(entries, closed.pairing_bound, closed.label, closed.lam)
    report = compare(ctx, series, wrong)
    assert len(report.mismatches) == 3
    assert _report(report) == _report(reference_compare(ctx, dense, wrong))
