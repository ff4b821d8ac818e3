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
point for point.  ``reference_window`` is a product's window as the package
read it off the dense Heaviside product before it enumerated windows, and
``reference_side`` the positive side by Fraction pairings with the side
roots, and ``reference_min_steps`` the least step count of an offset, the
search the package ran before it tested membership alone.
``reference_branching_table`` and ``reference_sp1q_table`` are the closed
tables the package built before it keyed them by int labels: every entry a
Fraction weight, one ``wadd`` per (sigma, p, q).

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

The final section holds the Fraction root data the package built before its
data were born on int points: each family's roots and simple roots as
Fraction weights, the positive roots as the closure of the simple roots
under adding a simple root, and the Hermitian data with certificate
positions looked up by Fraction weight.  Tests compare every datum's
fields, and its int points, against them.
"""

import functools
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from operator import add, mul, sub

from branchkit.errors import DomainError, InternalError
from branchkit.formal import ValidityRegion, _cone, convolve_multiset
from branchkit.lattice import (
    Chart,
    coroot_pairing,
    format_weight,
    identity_form,
    identity_matrix,
    inner,
    int_point,
    is_zero,
    mat_mul,
    rational_solve,
    reflect,
    reflection_matrix,
    scaled_point,
    scaled_points,
    wadd,
    weight,
    wneg,
    wscale,
    wsub,
    zero_weight,
)
from branchkit.oracle import ComparisonReport, CosetSum, OraclePlan, oracle_plan
from branchkit.quaternionic import BranchingTable, lam2_weight_table
from branchkit.repweights import _dominant_representative
from branchkit.rootsystems import WeylElement, parse_label
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


def reference_window(region):
    """{point: coefficient} of the dense product of region on the points that
    at most step-bound steps reach, found breadth first."""
    product = convolve_multiset(dict(region.directions), region.step_bound)
    level = {region.base}
    window = set(level)
    for _ in range(region.step_bound):
        level = {tuple(map(add, p, d)) for p in level for d, _ in region.directions} - window
        window |= level
    return {p: product.coeffs[p] for p in window}


def reference_min_steps(directions, v):
    """Minimal sum of a nonnegative integer decomposition of v over the
    distinct directions, or None: a depth-first search on their cone's
    pivots and covector that solves for the span pair exactly and enumerates
    every other direction up to the covector's budget."""
    cone = _cone(tuple(directions))
    if cone.check_span and not cone._in_span(v):
        return None
    free = [d for d in directions if d not in cone.span]
    best = None
    stack = [(0, cone._project(v), 0)]  # (free directions used, rest, steps)
    while stack:
        idx, t, total = stack.pop()
        if best is not None and total >= best:
            continue
        if idx == len(free):
            got = cone._solve_last(t)
            if got is not None and (best is None or total + got < best):
                best = total + got
            continue
        d = free[idx]
        dp, pd = cone._project(d), cone.phi[d]
        for c in range(sum(map(mul, cone.f, t)) // pd + 1):
            stack.append((idx + 1, tuple(x - c * y for x, y in zip(t, dp)), total + c))
    return best


def reference_side(ctx, chart):
    """The positive side by Fraction pairings of the point's weight with the
    side roots."""
    return lambda p: all(inner(ctx.form, chart.to_weight(p), g) > 0 for g in ctx.side_roots)


def reference_extract(ctx, series):
    """The branching table on the positive side of a dense series: every
    stored coefficient there that all regions certify."""
    chart = series.chart
    positive = reference_side(ctx, chart)
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
    positive = reference_side(ctx, series.chart)
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


def reference_sigma_points(ctx, lam, chart) -> dict:
    """{point of sigma: summed multiplicity} over the weights nu of the k2
    table, one Fraction projection and one ``to_point`` per weight."""
    out = {}
    for sigma, m in reference_restrict_weights(lam2_weight_table(ctx, lam), q_u_k2, ctx).items():
        p = chart.to_point(sigma)
        out[p] = out.get(p, 0) + m
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


def reference_dense_dominant_weights(hw, positive, simple):
    """Stembridge's walk down positive-root steps through dominant weights,
    each candidate v - g paired with every simple root on every coordinate."""
    found = {hw}
    frontier = [hw]
    while frontier:
        nxt = []
        for v in frontier:
            for g in positive:
                u = tuple(map(sub, v, g))
                if u not in found and all(sum(map(mul, u, a)) >= 0 for a, _ in simple):
                    found.add(u)
                    nxt.append(u)
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


def _reference_coset_sum(ctx, cosets, vectors, project, flips, noncompact):
    """One kind of coset sum on the Fraction pairings of the projected
    weights with ``vectors``, D beta and D w_line or D w_line alone."""
    r = len(vectors)

    def pairings(v):
        return tuple(inner(ctx.form, v, u) for u in vectors)

    h_roots = {pairings(h) for h in ctx.h_roots if project(h) == h}
    quotient = {pairings(w): m for w, m in reference_compact_quotient_weights(ctx).items()}
    multisets = []
    for flip in flips:
        ms = dict(quotient)
        for g in noncompact:
            p = pairings(q_u(ctx, reflect(ctx.form, g, ctx.beta) if flip else g))
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
        Chart([int_point(v, 1) for v in vectors], s0), terms,
        tuple(tuple(sorted((int_point(p, s0), m) for p, m in ms.items())) for ms in multisets),
        reference_weyl_normalizer(ctx) * t ** len(ctx.kernel_positive),
    )


def reference_oracle_plan(ctx) -> OraclePlan:
    """The plan built on Fraction pairings: a projected weight's series
    coordinates are its pairings with D beta and D w_line, for D the least
    common denominator of the roots, its torus coordinate the pairing with
    D w_line, and the coset walk carries each flip's vectors as Fraction
    reflections in beta."""
    d = lcm(1, *(x.denominator for g in ctx.rd.roots for x in g))
    b, w = wscale(d, ctx.beta), wscale(d, ctx.w_line)
    kinds = (((b, w), functools.partial(q_u, ctx), (False, True), ctx.rd.noncompact_positive),
             ((w,), functools.partial(q_u_k2, ctx), (False,), ()))
    reads = []
    for vectors, _, flips, _ in kinds:
        vs = (*vectors, *ctx.kernel_positive)
        reads.append([tuple(reflect(ctx.form, v, ctx.beta) for v in vs) if flip else vs
                      for flip in flips])
    index = {v: i for i, v in enumerate(dict.fromkeys(v for kind in reads for vs in kind for v in vs))}
    cosets = reference_kernel_cosets(ctx, [scaled_point(v) for v in index])
    series, torus = (
        _reference_coset_sum(ctx, [(word, [[images[index[v]] for v in vs] for vs in kind])
                                   for word, images in cosets], *spec)
        for spec, kind in zip(kinds, reads)
    )
    return OraclePlan(tuple(word for word, _ in cosets), series, torus)


def same_plans(got, want) -> bool:
    """Two plans with the same words and, per kind, the same chart, terms,
    multisets and denominator."""
    if got.words != want.words:
        return False
    return all(
        (a.chart.points, a.chart.scale, a.terms, a.multisets, a.denominator)
        == (b.chart.points, b.chart.scale, b.terms, b.multisets, b.denominator)
        for a, b in ((got.series, want.series), (got.torus, want.torus)))


# ---------------------------------------------------------------------------
# Fraction root data: the builders the package ran before its root data were
# born on int points, with the positive roots as the closure of the simple
# roots and the Hermitian certificates as Fraction weights


def _vector(n: int, entries):
    """The weight of length n with the given {coordinate: value} entries."""
    v = [Fraction(0)] * n
    for i, x in entries.items():
        v[i] = Fraction(x)
    return tuple(v)


def _chain(n: int, length: int):
    """The simple roots e_i - e_{i+1} for i < length, in R^n."""
    return [_vector(n, {i: 1, i + 1: -1}) for i in range(length)]


def _signed_pairs(n: int, singles=None):
    roots = [_vector(n, {i: si, j: sj})
             for i in range(n) for j in range(i + 1, n) for si in (1, -1) for sj in (1, -1)]
    if singles is not None:
        roots += [_vector(n, {i: s * singles}) for i in range(n) for s in (1, -1)]
    return roots


def _half_vectors(signs_on, fixed, n=8, parity=0):
    """Half-integer E-series vectors: entries +-1/2 on signs_on with given sign
    parity (number of minus signs mod 2), fixed coordinates elsewhere."""
    return [_vector(n, {**fixed, **{c: Fraction(s, 2) for c, s in zip(signs_on, signs)}})
            for signs in product((1, -1), repeat=len(signs_on)) if signs.count(-1) % 2 == parity]


def _type_e(rank: int):
    h = Fraction(1, 2)
    simples8 = [(h, -h, -h, -h, -h, -h, -h, h), _vector(8, {0: 1, 1: 1})]
    simples8 += [_vector(8, {i: -1, i + 1: 1}) for i in range(6)]
    if rank == 8:
        return _signed_pairs(8) + _half_vectors(range(8), {}), simples8
    if rank == 7:
        roots = [r for r in _signed_pairs(8) if all(r[i] == 0 for i in (6, 7))]
        roots += [_vector(8, {6: -1, 7: 1}), _vector(8, {6: 1, 7: -1})]
        halves = _half_vectors(range(6), {6: -h, 7: h}, parity=1)
    else:
        roots = [r for r in _signed_pairs(8) if all(r[i] == 0 for i in (5, 6, 7))]
        halves = _half_vectors(range(5), {5: -h, 6: -h, 7: h})
    return roots + halves + [wneg(g) for g in halves], simples8[:rank]


def reference_base_system(family: str, rank: int):
    """(roots, simple roots) of the base system as Fraction weights."""
    if family == "A":
        n = rank + 1
        roots = [_vector(n, {i: 1, j: -1}) for i in range(n) for j in range(n) if i != j]
        return roots, _chain(n, rank)
    if family in ("B", "C"):
        c = 1 if family == "B" else 2
        return _signed_pairs(rank, singles=c), _chain(rank, rank - 1) + [_vector(rank, {rank - 1: c})]
    if family == "D":
        return _signed_pairs(rank), _chain(rank, rank - 1) + [_vector(rank, {rank - 2: 1, rank - 1: 1})]
    if family == "G":
        a1, a2 = _vector(3, {0: 1, 1: -1}), _vector(3, {0: -2, 1: 1, 2: 1})
        pos = [a1, a2, wadd(a1, a2), wadd(wscale(2, a1), a2), wadd(wscale(3, a1), a2),
               wadd(wscale(3, a1), wscale(2, a2))]
        return pos + [wneg(g) for g in pos], [a1, a2]
    if family == "F":
        roots = _signed_pairs(4, singles=1)
        roots += [tuple(Fraction(x, 2) for x in signs) for signs in product((1, -1), repeat=4)]
        h = Fraction(1, 2)
        return roots, [_vector(4, {1: 1, 2: -1}), _vector(4, {2: 1, 3: -1}), _vector(4, {3: 1}),
                       (h, -h, -h, -h)]
    return _type_e(rank)


def reference_positive_from_simples(roots, simples):
    """The positive roots in sorted order: the simple roots, closed under
    adding a simple root while the sum is still a root (Humphreys, 10.2).  A
    root outside the span of the simple roots is never reached, and breaks
    the half split."""
    den = lcm(1, *(x.denominator for g in roots for x in g))
    by_point = {int_point(g, den): g for g in roots}
    steps = [int_point(a, den) for a in simples]
    positive = level = set(steps)
    while level:
        level = {tuple(map(add, p, a)) for p in level for a in steps} & by_point.keys()
        positive |= level
    if 2 * len(positive) != len(roots):
        raise InternalError("positive system does not split the roots in half")
    return tuple(by_point[p] for p in sorted(positive))


def _datum_view(roots, positive, simple, compact, highest=None, **rest):
    """The Fraction fields of a root datum, with ``points`` as the datum
    reads them: (D, D g, (D g, D g)) at the common denominator D."""
    den = lcm(1, *(x.denominator for g in positive for x in g))
    points = tuple(int_point(g, den) for g in positive)
    return dict(roots=tuple(sorted(roots)), positive=positive, simple=tuple(simple),
                compact=tuple(compact), highest=highest,
                points=(den, points, tuple(sum(map(mul, a, a)) for a in points)), **rest)


def reference_highest_root_datum(family: str, rank: int) -> dict:
    """The quaternionic datum of the base system: the closure's positive
    roots, the root of greatest height over the simple roots (by a linear
    solve) and compactness by the pairing with its coroot."""
    roots, simples = reference_base_system(family, rank)
    positive = reference_positive_from_simples(roots, simples)
    height = [sum(rational_solve(list(simples), g)) for g in positive]
    top = height.index(max(height))
    b = positive[top]
    compact = [coroot_pairing(identity_form(len(b)), g, b) != 1 for g in positive]
    return _datum_view(roots, positive, simples, compact, top)


def _reference_hermitian_sets(name, params):
    """(z, certificate, conjugate certificate) as Fraction weights."""
    if name == "su_pq":
        p, q = params
        n = p + q
        gammas = [i + (i - 1) * (q - p) // p + p for i in range(1, p + 1)]
        bs = [i + 1 + i * (q - p) // p + p if i * (q - p) % p else i + i * (q - p) // p + p
              for i in range(1, p + 1)]
        cert = [_vector(n, {i: 1, gammas[i] - 1: -1}) for i in range(p)]
        conj = [_vector(n, {i: -1, bs[i] - 1: 1}) for i in range(p)]
        return _vector(n, {i: q if i < p else -p for i in range(n)}), cert, conj
    if name in ("sp_n_R", "so_star"):
        (n,) = params
        l = n // 2
        cert = [_vector(n, {l: 2})] if name == "sp_n_R" and n % 2 else []
        cert += [_vector(n, {k - 1: 1, n - k: 1}) for k in range(1, l + 1)]
        conj = [wneg(g) for g in cert]
        if name == "so_star" and n % 2:
            cert.append(_vector(n, {l: 1, l + 1: 1}))
            conj.append(_vector(n, {l - 1: -1, l: -1}))
        return _vector(n, {i: 1 for i in range(n)}), cert, conj
    h = Fraction(1, 2)
    eta = [tuple(s * h for s in signs) for signs in
           ((-1, -1, -1, -1, 1, -1, -1, 1), (-1, -1, 1, 1, 1, -1, -1, 1),
            (-1, 1, -1, -1, 1, 1, -1, 1), (-1, -1, 1, 1, -1, 1, -1, 1))]
    if name == "e6_m14":
        compact = [_vector(8, {0: 1, 4: 1}), _vector(8, {1: 1, 4: 1})]
        return (_vector(8, {5: -1, 6: -1, 7: 1}), eta[:2] + compact,
                [wneg(g) for g in eta[:2]] + compact)
    cert = eta[2:] + [_vector(8, {0: 1, 5: 1})]
    return _vector(8, {5: 2, 6: -1, 7: 1}), cert, [wneg(g) for g in cert]


def reference_simple_elements(positives):
    """The indecomposable elements of a positive system (its simple roots),
    those that are not the sum of two of its elements, in sorted order: the
    pairwise search the package ran before its search in height order."""
    _, points = scaled_points(positives)
    pos = set(points)
    return tuple(g for p, g in sorted(zip(points, positives))
                 if not any(tuple(map(sub, p, a)) in pos for a in points))


def reference_hermitian_data(label: str) -> dict:
    """The Hermitian datum as the package built it on Fraction weights: the
    holomorphic system positive on z, then on a compact-regular vector,
    the simple roots by the pairwise search and certificate positions
    looked up by Fraction weight."""
    name, params, system = parse_label(label, "hermitian")
    roots, _ = reference_base_system(*system)
    z, cert, conj = _reference_hermitian_sets(name, params)
    form = identity_form(len(z))
    v = weight([5, 4, 3, 2, 1, 0, -64, 64] if name in ("e6_m14", "e7_m25")
               else range(form.dim, 0, -1))
    positive = tuple(sorted(g for g in roots if inner(form, g, z) > 0
                            or not inner(form, g, z) and inner(form, g, v) > 0))
    if 2 * len(positive) != len(roots):
        raise InternalError("holomorphic system does not split the roots")
    position = {g: i for i, g in enumerate(positive)}

    def signed_position(g):
        return (position[g], 1) if g in position else (position[wneg(g)], -1)

    return _datum_view(roots, positive, reference_simple_elements(positive),
                       [not inner(form, g, z) for g in positive],
                       certificate=tuple(map(signed_position, cert)),
                       certificate_conjugate=tuple(map(signed_position, conj)))
