"""Fraction reference for the oracle's integer coset plan, the dense
extraction and comparison it replaced, and the Fraction closed tables.

This is the coset loop the package ran before its plans became integer data:
coset representatives as Fraction matrices, each term's parameter image
``apply_matrix``-ed, projected by ``q_u`` / ``q_u_k2`` and weighted by the
Weyl polynomial of the kernel roots, and the signed sum accumulated in
Fractions.  ``reference_extract`` and ``reference_compare`` are the
extraction and comparison the package ran before it evaluated only the
terms' windows: they read every coefficient of a dense ``DeltaSeries`` and
certify each positive-side point against all of its regions, and compare
weights with Fraction pairings.  Tests compare the package against both
point for point.  ``reference_branching_table`` and ``reference_sp1q_table``
are the closed tables the package built before it keyed them by int labels:
every entry a Fraction weight, one ``wadd`` per (sigma, p, q).

The next section holds the Fraction request checks that the package ran
before it read them on int points: the coroot-pairing scan, the Hermitian
chamber as a frozenset of roots and its certificate test, the compact
factor's conversion, dimension and coweights, and the context's projection
check.

The last section holds the Fraction torus projections ``q_u`` and
``q_u_k2`` and what the package built on them before it read them as int
pairings with beta and w_line: the oracle plan, its quotient weights,
normalizer and coset walk, the split of a parameter, the pushforward of a
weight table and its su(2) strings, and Freudenthal's walk over dominant
representatives with a coweight test.  ``half_sum`` adds roots in
Fractions: the reference for ``PositiveSystem.rho``.
"""

import functools
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from operator import add, mul, sub

from branchkit.errors import DomainError, InternalError
from branchkit.formal import ValidityRegion, convolve_multiset
from branchkit.lattice import (
    Chart,
    coroot_pairing,
    format_weight,
    identity_matrix,
    inner,
    int_point,
    is_zero,
    mat_mul,
    rational_solve,
    reflect,
    reflection_matrix,
    scaled_point,
    wadd,
    wneg,
    wscale,
    wsub,
    zero_weight,
)
from branchkit.oracle import ComparisonReport, CosetSum, OraclePlan, oracle_plan
from branchkit.quaternionic import BranchingTable, lam2_weight_table
from branchkit.repweights import _dominant_representative
from branchkit.rootsystems import WeylElement
from branchkit.specialcases import sp1q_string_table


def half_sum(form_dim: int, roots):
    """Half the sum of the roots, added in Fractions: the reference for
    ``PositiveSystem.rho``."""
    return tuple(sum((g[i] for g in roots), Fraction(0)) / 2 for i in range(form_dim))


def apply_matrix(m, v):
    """The Fraction matrix m applied to the weight v, as a column vector."""
    return tuple(
        sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in m
    )


def kernel_roots(ctx):
    """Positive compact roots annihilated by the projection onto the su(2,1)
    torus; verified against the orthogonality characterization."""
    by_kernel = tuple(g for g in ctx.k2_factor.positive if is_zero(q_u(ctx, g)))
    by_orthogonality = tuple(
        g
        for g in ctx.rd.compact_positive
        if inner(ctx.form, g, ctx.alpha) == 0 and inner(ctx.form, g, ctx.beta) == 0
    )
    if by_kernel != by_orthogonality or by_kernel != ctx.kernel_positive:
        raise InternalError("kernel-root characterizations disagree")
    return by_kernel


def weyl_polynomial(ctx, sigma):
    """Product of pairings with the kernel roots, normalized at their half-sum."""
    num = 1
    for g in ctx.kernel_positive:
        num *= inner(ctx.form, sigma, g)
    return num / reference_weyl_normalizer(ctx)


def restriction_multiset(ctx, w, flip: bool) -> dict:
    """The convolution multiset of the coset term of w: quotient weights
    joined with the projections of the transformed noncompact positive
    roots, subgroup roots removed."""
    ms = dict(reference_compact_quotient_weights(ctx))
    for g in ctx.rd.noncompact_positive:
        img = apply_matrix(w.matrix, g)
        if flip:
            img = apply_matrix(reflection_matrix(ctx.beta), img)
        p = q_u(ctx, img)
        if is_zero(p):
            raise InternalError("noncompact root projects to zero")
        if p not in ctx.h_roots:
            ms[p] = ms.get(p, 0) + 1
    return ms


def coset_elements(ctx):
    """The plan's coset representatives as WeylElements: a word's matrix is
    the product of its simple reflections, left to right."""
    gens = [reflection_matrix(g) for g in ctx.k2_factor.simple]
    words = oracle_plan(ctx).words
    matrices = {(): identity_matrix(ctx.form.dim)}
    for word in words[1:]:  # in order of length: every word's prefix comes first
        matrices[word] = mat_mul(matrices[word[:-1]], gens[word[-1]])
    return [WeylElement(word, matrices[word], (-1) ** len(word)) for word in words]


def coset_terms(ctx, lam, torus: bool = False):
    """(coefficient, base weight, multiset) per (coset, flip), in the plan's
    order: the branching series' terms, or with ``torus`` those of the torus
    identity's right side (lam is then the k2 part lam2)."""
    s_beta = reflection_matrix(ctx.beta)
    cosets = coset_elements(ctx)
    project = functools.partial(q_u_k2 if torus else q_u, ctx)
    kinds = [(False, reference_compact_quotient_weights(ctx))] if torus else [
        (flip, restriction_multiset(ctx, cosets[0], flip)) for flip in (False, True)
    ]
    terms = []
    for s in cosets:
        slam = apply_matrix(s.matrix, lam)
        for flip, ms in kinds:
            wlam = apply_matrix(s_beta, slam) if flip else slam
            sign = -s.sign if flip else s.sign
            coeff = sign * (-1) ** sum(ms.values()) * weyl_polynomial(ctx, wlam)
            if coeff == 0:
                raise InternalError("Weyl polynomial vanished on a coset representative")
            terms.append((coeff, project(wlam), ms))
    return terms


def reference_series(terms, chart, step_bound):
    """(coefficients, regions) of the signed sum of the terms on chart, with
    Fraction coefficients; every base and direction must be a chart point."""
    acc = {}
    regions = []
    for coeff, base, ms in terms:
        b = chart.to_point(base)
        product = convolve_multiset({chart.to_point(d): m for d, m in ms.items()}, step_bound)
        for p, c in product.coeffs.items():
            p = tuple(map(add, p, b))
            acc[p] = acc.get(p, 0) + coeff * c
        regions.extend(ValidityRegion(tuple(map(add, r.base, b)), r.directions, r.step_bound)
                       for r in product.regions)
    if any(c.denominator != 1 for c in acc.values()):
        raise InternalError("coset sum produced a non-integer coefficient")
    return {p: int(c) for p, c in acc.items() if c}, tuple(regions)


def region_points(region):
    """The points base + sum c_g g (c_g >= 0 integers, sum c_g <= step bound)
    of a region, by brute force over the step counts."""
    n = region.step_bound
    dirs = [d for d, _ in region.directions]
    return {
        tuple(b + sum(c * d[k] for c, d in zip(counts, dirs)) for k, b in enumerate(region.base))
        for counts in product(range(n + 1), repeat=len(dirs)) if sum(counts) <= n
    }


def _side(ctx, chart):
    covectors = [chart.functional(lambda w, g=g: inner(ctx.form, w, g))[0]
                 for g in ctx.side_roots]
    return lambda p: all(sum(map(mul, f, p)) > 0 for f in covectors)


def reference_extract(ctx, series):
    """The branching table on the positive side of a dense series: every
    stored coefficient there that all regions certify."""
    chart = series.chart
    positive = _side(ctx, chart)
    entries = {}
    for p, c in series.coeffs.items():
        if not positive(p) or not series.certain_at(p):
            continue
        mu = chart.to_weight(p)
        ctx.check_extracted(series, p, c)
        if c < 0:
            raise InternalError(
                f"antisymmetrization failure at {format_weight(mu)}: coefficient {c}"
            )
        entries[mu] = c
    return BranchingTable(entries, None, ctx.rd.label, None)


def reference_compare(ctx, series, closed):
    """The closed table against the extraction of a dense series, over the
    sorted union of both sides' weights, with Fraction pairings."""
    extracted = reference_extract(ctx, series).entries
    positive = _side(ctx, series.chart)
    mismatches = []
    compared = 0
    for mu in sorted(set(closed.entries) | set(extracted)):
        if coroot_pairing(ctx.form, mu, ctx.beta) > closed.pairing_bound:
            continue
        got = extracted.get(mu)
        if got is None:
            p = series.chart.to_point(mu)
            if not positive(p):
                continue
            got = series.coefficient(p)
            if got is None:
                continue
        compared += 1
        want = closed.entries.get(mu, 0)
        if got != want:
            mismatches.append((mu, want, got))
    return ComparisonReport(not mismatches, compared, tuple(mismatches))


def reference_branching_table(ctx, lam, cutoff):
    """The quaternionic closed table on Fraction weights:
    mu = lam1 + sigma + ((d-1)/2 + p) L1 + ((d-1)/2 + q) L2."""
    lam1, _ = reference_decompose_parameter(ctx, lam)
    sigmas = reference_restrict_weights(lam2_weight_table(ctx, lam), q_u_k2, ctx).items()
    d = ctx.d
    offset = Fraction(d - 1, 2)
    base = wadd(lam1, wadd(wscale(offset, ctx.fw1), wscale(offset, ctx.fw2)))
    steps = [
        (wadd(wscale(p, ctx.fw1), wscale(q, ctx.fw2)), comb(p + d - 2, d - 2) * comb(q + d - 2, d - 2))
        for p in range(cutoff + 1) for q in range(cutoff + 1 - p)
    ]
    entries = {}
    for sigma, mult in sigmas:
        shifted = wadd(base, sigma)
        for step, c in steps:
            mu = wadd(shifted, step)
            entries[mu] = entries.get(mu, 0) + mult * c
    bound = coroot_pairing(ctx.form, lam, ctx.beta) + (d - 1) + cutoff
    return BranchingTable(entries, bound, ctx.rd.label, lam)


def reference_sp1q_table(ctx, lam, cutoff):
    """The sp(1, q) closed table on Fraction weights: N_k C(p + 2q - 3, 2q - 3)
    at (a0 + q - 1 + p) e0 + k e1."""
    a0 = lam[0]
    entries = {}
    for k, nk in sp1q_string_table(ctx, lam).items():
        for p in range(cutoff + 1):
            mu = tuple([a0 + (ctx.q - 1) + p, Fraction(k)] + [Fraction(0)] * (ctx.q - 1))
            entries[mu] = entries.get(mu, 0) + nk * comb(p + 2 * ctx.q - 3, 2 * ctx.q - 3)
    return BranchingTable(entries, a0 + (ctx.q - 1) + cutoff, ctx.rd.label, lam)


def fraction_pairings(rd, lam):
    """{g: <lam, g-check>} over the positive roots, one Fraction coroot
    pairing each; a singular or non-integral lam fails at the first failing
    root in the sorted order of all roots."""
    pairings = {g: coroot_pairing(rd.form, lam, g) for g in rd.positive}
    bad = {r: c for g, c in pairings.items() if c == 0 or c.denominator != 1
           for r in (g, wneg(g))}
    if bad:
        first = min(bad)
        problem = "singular" if bad[first] == 0 else "not integral"
        raise DomainError(f"parameter is {problem} against root {format_weight(first)}")
    return pairings


def reference_validate_hc_parameter(lam, system):
    pairings = fraction_pairings(system.parent, lam)
    for g in system.chosen:
        if (pairings[g] if g in pairings else -pairings[wneg(g)]) <= 0:
            raise DomainError("parameter is not dominant for the given positive system")


def certificate_roots(hd, pairs):
    """The roots s * g of a certificate set held as (position, sign) pairs."""
    return frozenset(wscale(s, hd.rd.positive[i]) for i, s in pairs)


def reference_hermitian_chamber(hd, lam) -> frozenset:
    """The chamber system of lam as a frozenset of roots."""
    pairings = fraction_pairings(hd.rd, lam)
    if any(pairings[g] <= 0 for g in hd.rd.compact_positive):
        raise DomainError("parameter is not dominant for the compact positive system")
    return frozenset(g if c > 0 else wneg(g) for g, c in pairings.items())


def reference_kss_admissible_system(hd, chamber: frozenset) -> bool:
    contained = (certificate_roots(hd, hd.certificate) <= chamber
                 or certificate_roots(hd, hd.certificate_conjugate) <= chamber)
    return (not contained) if hd.tube else contained


def reference_hc_to_highest_weight(lam2, factor):
    for g in factor.positive:
        p = coroot_pairing(factor.form, lam2, g)
        if p <= 0:
            raise DomainError("infinitesimal character is not dominant regular")
        if p.denominator != 1:
            raise DomainError("infinitesimal character is not integral")
    return wsub(lam2, factor.rho)


def reference_weyl_dimension(hw, factor) -> int:
    for g in factor.positive:
        p = coroot_pairing(factor.form, hw, g)
        if p < 0 or p.denominator != 1:
            raise DomainError("highest weight must be dominant integral")
    num = Fraction(1)
    shifted = wadd(hw, factor.rho)
    for g in factor.positive:
        num *= inner(factor.form, shifted, g) / inner(factor.form, factor.rho, g)
    if num.denominator != 1:
        raise InternalError("Weyl dimension is not an integer")
    return int(num)


def reference_coweight_covectors(factor):
    """Each fundamental coweight by a Fraction solve, scaled to ints."""
    columns = [tuple(inner(factor.form, a, b) for b in factor.simple) for a in factor.simple]
    out = []
    for i in range(len(factor.simple)):
        coeffs = rational_solve(columns, tuple(int(i == j) for j in range(len(factor.simple))))
        coweight = [sum(c * a[k] for c, a in zip(coeffs, factor.simple))
                    for k in range(factor.form.dim)]
        den = lcm(1, *(x.denominator for x in coweight))
        out.append(tuple(int(x * den) for x in coweight))
    return tuple(out)


def reference_verify_projections(ctx):
    """The involution g -> beta - g preserves the noncompact positive roots,
    and their projections by the Fraction ``q_u`` fall on L1 and L2."""
    targets = {ctx.fw1, ctx.fw2}
    special = {ctx.alpha, wsub(ctx.beta, ctx.alpha)}
    noncompact = set(ctx.rd.noncompact_positive)
    for g in noncompact:
        if wsub(ctx.beta, g) not in noncompact:
            raise InternalError("beta - gamma is not a noncompact positive root")
        if g in special:
            continue
        if q_u(ctx, g) not in targets:
            raise InternalError("projection of a noncompact root misses L1, L2")


def onto(ctx, v, g):
    """Orthogonal projection of v onto the line of g."""
    c = inner(ctx.form, v, g) / inner(ctx.form, g, g)
    return tuple(c * x if x else x for x in g)


def q_u(ctx, v):
    """Orthogonal projection onto the subgroup torus span(beta, w_line)."""
    return wadd(onto(ctx, v, ctx.beta), q_u_k2(ctx, v))


def q_u_k2(ctx, v):
    """Orthogonal projection onto the su(2) torus, the line of w_line."""
    return onto(ctx, v, ctx.w_line)


def reference_decompose_parameter(ctx, lam):
    lam1 = onto(ctx, lam, ctx.beta)
    return lam1, wsub(lam, lam1)


def reference_restrict_weights(table, projection, *args) -> dict:
    """Pushforward of the weight table's multiplicities along a projection
    of Fraction weights, ``projection(*args, v)``."""
    out = {}
    for v, m in table.mults.items():
        p = projection(*args, v)
        out[p] = out.get(p, 0) + m
    return out


def reference_sigma_keys(ctx, lam, coords) -> dict:
    """{key of sigma: summed multiplicity} over the weights nu of the k2
    table, one Fraction projection and one ``to_key`` per weight."""
    out = {}
    for sigma, m in reference_restrict_weights(lam2_weight_table(ctx, lam), q_u_k2, ctx).items():
        key = coords.to_key(sigma)
        out[key] = out.get(key, 0) + m
    return out


def reference_su2_string_decompose(table, root) -> dict:
    """{k: N_k} from the profile of Fraction coroot pairings along root."""
    profile = {}
    for v, m in table.mults.items():
        c = coroot_pairing(table.factor.form, v, root)
        if c.denominator != 1:
            raise InternalError("non-integral su(2) weight in string decomposition")
        profile[int(c)] = profile.get(int(c), 0) + m
    out = {}
    for k in range(1, max(profile, default=-1) + 2):
        n = profile.get(k - 1, 0) - profile.get(k + 1, 0)
        if n:
            out[k] = n
    return out


def reference_dominant_weights(hw, positive, simple, covectors):
    """Freudenthal's dominant weights by the walk down positive-root steps
    through dominant representatives, each kept when hw minus it pairs
    nonnegatively with every coweight covector."""
    found = {hw}
    frontier = [hw]
    while frontier:
        nxt = []
        for v in frontier:
            for g in positive:
                cd = _dominant_representative(tuple(map(sub, v, g)), simple)
                if cd in found or any(sum(map(mul, f, map(sub, hw, cd))) < 0 for f in covectors):
                    continue
                found.add(cd)
                nxt.append(cd)
        frontier = nxt
    return found


def reference_weyl_normalizer(ctx) -> Fraction:
    """The kernel-root product at rho_Z, their half-sum, in Fractions."""
    rho_z = half_sum(ctx.form.dim, ctx.kernel_positive)
    den = Fraction(1)
    for g in ctx.kernel_positive:
        den *= inner(ctx.form, rho_z, g)
    return den


def reference_compact_quotient_weights(ctx) -> dict:
    """Multiset of the Fraction projections of the k2 positive roots outside
    the kernel onto the su(2) torus, subgroup roots removed."""
    out = {}
    kernel = set(ctx.kernel_positive)
    for g in ctx.k2_factor.positive:
        if g in kernel:
            continue
        p = q_u_k2(ctx, g)
        if is_zero(p):
            raise InternalError("kernel filter missed a vanishing projection")
        if p not in ctx.h_roots:
            out[p] = out.get(p, 0) + 1
    return out


def _reflect_scaled(v, a, aa):
    x, d = v
    k = 2 * sum(map(mul, x, a))
    y = [xi * aa - k * ai for xi, ai in zip(x, a)]
    g = gcd(d * aa, *y)
    return tuple(yi // g for yi in y), d * aa // g


def reference_kernel_cosets(ctx, vectors=()):
    """The coset walk over the orbit of v = q_u_k2(g), g the first k2 root
    outside the kernel (v = 0 when there is none), on ``scaled_point`` pairs."""
    kernel = set(ctx.kernel_positive)
    positive = ctx.k2_factor.positive
    v = next((q_u_k2(ctx, g) for g in positive if g not in kernel), zero_weight(ctx.form.dim))
    if {g for g in positive if inner(ctx.form, g, v) == 0} != kernel:
        raise InternalError("the orbit vector's stabilizer is not the kernel-root group")
    simple = [(a, sum(map(mul, a, a))) for a, _ in map(scaled_point, ctx.k2_factor.simple)]
    reps = [((), (scaled_point(v), *vectors))]
    orbit = {reps[0][1][0]}
    frontier = list(reps)
    while frontier:
        nxt = []
        for word, images in frontier:
            for i, (a, aa) in enumerate(simple):
                y = _reflect_scaled(images[0], a, aa)
                if y not in orbit:
                    orbit.add(y)
                    rep = (word + (i,), (y, *(_reflect_scaled(x, a, aa) for x in images[1:])))
                    reps.append(rep)
                    nxt.append(rep)
        frontier = nxt
    return tuple((word, images[1:]) for word, images in reps)


def _reference_coset_sum(ctx, cosets, chart, project, flips, noncompact):
    coords, r = chart.coords, len(chart.coords)
    h_roots = {tuple(h[c] for c in coords) for h in ctx.h_roots if project(h) == h}
    quotient = {tuple(w[c] for c in coords): m
                for w, m in reference_compact_quotient_weights(ctx).items()}
    multisets = []
    for images in cosets[0][1]:
        ms = dict(quotient)
        for g, k in map(scaled_point, noncompact):
            p = tuple(Fraction(sum(map(mul, x, g)), d * k) for x, d in images[:r])
            if not any(p):
                raise InternalError("noncompact root projects to zero")
            if p not in h_roots:
                ms[p] = ms.get(p, 0) + 1
        multisets.append(ms)
    s0 = 2 * lcm(1, *(d for _, per_flip in cosets for images in per_flip for _, d in images[:r]),
                 *(x.denominator for ms in multisets for p in ms for x in p))
    t = lcm(1, *(d for _, per_flip in cosets for images in per_flip for _, d in images[r:]))
    prefactors = [(-1) ** sum(ms.values()) for ms in multisets]
    terms = tuple(
        (tuple(tuple(s0 // d * xi for xi in x) for x, d in images[:r]),
         tuple(tuple(t // d * xi for xi in x) for x, d in images[r:]),
         (-1) ** (len(word) + flip) * prefactors[i], i)
        for word, per_flip in cosets for i, (flip, images) in enumerate(zip(flips, per_flip))
    )
    return CosetSum(
        chart.at_scale(s0), terms,
        tuple(tuple(sorted((int_point(p, s0), m) for p, m in ms.items())) for ms in multisets),
        reference_weyl_normalizer(ctx) * t ** len(ctx.kernel_positive),
    )


def reference_oracle_plan(ctx) -> OraclePlan:
    """The plan built on the Fraction projections: each kind's chart spans
    the images of the unit vectors, its covectors are read off them, and
    the coset walk carries their Fraction reflections in beta."""
    dim = ctx.form.dim
    flipped = lambda w: reflect(ctx.form, w, ctx.beta)  # noqa: E731
    kinds = ((functools.partial(q_u, ctx), (False, True), ctx.rd.noncompact_positive),
             (functools.partial(q_u_k2, ctx), (False,), ()))
    charts = []
    for project, _, _ in kinds:
        images = [project(tuple(Fraction(i == j) for j in range(dim))) for i in range(dim)]
        chart = Chart(images)
        charts.append((chart, [tuple(img[c] for img in images) for c in chart.coords]))
    reads = []
    for (_, flips, _), (_, rows) in zip(kinds, charts):
        vs = (*rows, *ctx.kernel_positive)
        reads.append([tuple(map(flipped, vs)) if flip else vs for flip in flips])
    index = {v: i for i, v in enumerate(dict.fromkeys(v for kind in reads for vs in kind for v in vs))}
    cosets = reference_kernel_cosets(ctx, [scaled_point(v) for v in index])
    series, torus = (
        _reference_coset_sum(ctx, [(word, [[images[index[v]] for v in vs] for vs in kind])
                                   for word, images in cosets], chart, project, flips, noncompact)
        for (project, flips, noncompact), (chart, _), kind in zip(kinds, charts, reads)
    )
    return OraclePlan(tuple(word for word, _ in cosets), series, torus)


def same_plans(got, want) -> bool:
    """Two plans with the same words and, per kind, the same chart, terms,
    multisets and denominator."""
    if got.words != want.words:
        return False
    return all(
        (a.chart.coords, a.chart.rows, a.chart.scale, a.terms, a.multisets, a.denominator)
        == (b.chart.coords, b.chart.rows, b.chart.scale, b.terms, b.multisets, b.denominator)
        for a, b in ((got.series, want.series), (got.torus, want.torus)))
