"""Independent evaluation of the distributional branching formulas.

For a quaternionic form the restriction of a discrete series to the su(2,1)
subgroup, and for sp(1,q) the restriction to the sp(1,1) subgroup, is
encoded by a signed coset sum of convolved Heaviside series over
per-element multisets; antisymmetrizing in the reflection S_b and reading off
the coefficients on the positive side recovers the branching multiplicities.
This module evaluates that sum with exact truncation bookkeeping and extracts
tables to compare against the closed form.  Both families run through the
same functions on one ``quaternionic.SubgroupContext``.

The cosets W_Z\\W(K2), W_Z generated by the kernel roots, are enumerated as
the W(K2)-orbit of w_line, whose stabilizer is W_Z, never as the whole group,
so every quaternionic family is in reach; the count needs no bound of its
own (at most 56, on e8_m24).  W(K2) permutes the noncompact positive roots,
so each flip has one term multiset for all cosets.

What depends only on the form is built once per process, lazily, as integer
data (``oracle_plan``) on the datum's int points at its scale D: the walk
carries b, w (the orthogonal int points of beta and w_line,
``SubgroupContext.torus_points``) and the kernel roots once each.  A weight
mu of the subgroup torus has the point s ((mu, b), (mu, w)), and one of the
su(2) torus the point s (mu, w), for a scale s that makes every point and
every half-sum base integral (``lattice.Chart``).  The plan holds one chart
per kind (rank 2 for the branching series, rank 1 for the torus identity),
each flip's multiset as chart points, and per (coset, flip) the int maps
from the scaled parameter to the term's base point and kernel-root pairings
(``CosetSum``).  A request scales lam to ints once and runs its coset loop
on ints; it hashes no Fraction.  Every per-parameter check runs on every
request, so results do not depend on the order of requests.

Sign normalization: expanding each factor 1/(e^{x/2} - e^{-x/2}) of a Weyl
denominator into an ascending Heaviside series contributes one factor of -1,
so every coset term carries the prefactor (-1)^(number of Heaviside factors).
The torus restriction identity (whose left side is computable directly from
the weight table) pins this convention down empirically, and positivity of
the extracted multiplicities confirms it on the full formula.

Products, certification, evaluation, extraction and comparison run on int
points.  Every series symmetry is a sign flip of the two coordinates
(``SubgroupContext.mirrors``: S_b negates the pairing with b), <mu, beta-check>
is read on the first coordinate, and the positive side is the sign of the
side roots' int covectors.  The extracted table is keyed by chart points,
and a closed table, keyed by the same coordinates at its own scale
(``SubgroupContext.table_chart``), reaches them by one exact int rescale;
weights are mapped back only for mismatches and errors.  A request returns a
``formal.ProductSum``: the conjunction of the per-term truncation regions,
stated per point.  A term certifies a point when the offset from its base
lies in its product's step-bound window, where the term adds its value, or
has no decomposition over the product's directions at all.  Each window is
enumerated from its product's region; the dense products are built only
when read, by the tests: no request and no self-test criterion reads them.
One sweep over the windows gives each point its window total; a certified
point with a nonzero coefficient has a nonzero total, so extraction
certifies only the positive-side points with one, and comparison adds only
the closed table's entries, never reading the dense series.  The sizes of
the closed table, the products' grids (which bound the windows) and the
windows are checked against the dimension bound before what they bound is
built.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import DomainError, InternalError
from .formal import ProductSum, product_region, product_size
from .lattice import Chart, Weight, format_weight, int_point, record, reflect_point, scaled_point
from .quaternionic import (
    BranchingTable,
    QuaternionicContext,
    SubgroupContext,
    _branching_table,
    decompose_parameter,
    require_proper_subgroup,
    validate_small_dominant,
)
from .repweights import check_size


@record(eq=True)
class OracleConfig:
    """Truncation depth of the Heaviside series."""

    step_bound: int = 12

    def __post_init__(self):
        if self.step_bound <= 0:
            raise DomainError("the oracle step bound must be positive")


def _kernel_cosets(ctx: SubgroupContext, vectors=()) -> tuple:
    """Minimal representatives s of the right cosets W_Z\\W(K2), in order of
    length, as (reduced word, images s^T x of w and of the vectors x, int
    points at the datum's scale D); s is the product of the word's simple
    reflections, left to right.  W_Z, the reflection group of the kernel
    roots (the k2 roots orthogonal to w_line), is the stabilizer in W(K2)
    of w_line (a stabilizer is generated by the reflections it contains),
    so the cosets W_Z s are in bijection with the orbit points s^T w.
    A breadth-first walk over the orbit by simple reflections reaches each
    point first along a shortest word, whose inverse is the minimal
    representative (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).
    """
    points = ctx.rd.points[1]
    simple = [(a, sum(map(mul, a, a))) for a in ctx.k2_factor.int_roots[3]]
    # W(K2) permutes the noncompact positive roots, so every coset of one flip
    # has the multiset of the identity; a simple root's reflection is the same
    # at the factor's scale, which divides D
    noncompact = {p for p, c in zip(points, ctx.rd.compact) if not c}
    if any({reflect_point(x, a, aa) for x in noncompact} != noncompact for a, aa in simple):
        raise InternalError("a compact-factor reflection moves a noncompact positive root")
    # a reflection changes each 2 (x, a) / (a, a) by an int multiple of a
    # Cartan integer, so when these are ints every image is an int point
    reps = [((), (ctx.torus_points[1], *vectors))]
    if any(2 * sum(map(mul, x, a)) % aa for x in reps[0][1] for a, aa in simple):
        raise InternalError("a carried vector pairs non-integrally with a compact-factor coroot")
    orbit = {reps[0][1][0]}
    for word, images in reps:  # the breadth-first queue, read as it grows
        for i, (a, aa) in enumerate(simple):
            y = reflect_point(images[0], a, aa)
            if y not in orbit:
                orbit.add(y)
                reps.append((word + (i,), (y, *(reflect_point(x, a, aa) for x in images[1:]))))
    return tuple(reps)


@record
class CosetSum:
    """One kind of coset sum as integer data.  For lam with common
    denominator den and L = den * lam, the term of a coset s and a flip has
    its base at the point A L of ``chart`` rescaled by den, and coefficient
    factor * prod(c . L) / (denominator * den**len(c's)) over its kernel
    covectors c: A is the chart's scale s0 times the int images s^T b
    (negated for the flip) and s^T w, or s^T w alone, and c is t s^T x / D
    for a kernel root's int point x, t those weights' least common
    denominator.  ``factor`` is the sign of s, negated for the flip, times
    the Heaviside prefactor; ``multisets`` hold each flip's directions as
    sorted (point, multiplicity) items of ``chart``."""

    chart: Chart      # the projection's image at the base scale s0
    terms: tuple      # (A, kernel covectors, factor, index into multisets) per (coset, flip)
    multisets: tuple
    denominator: Fraction


@record
class OraclePlan:
    """What the coset sums of one form read besides the parameter."""

    words: tuple[tuple[int, ...], ...]   # minimal representatives of W_Z\\W(K2)
    series: CosetSum    # both flips, projected onto the subgroup torus
    torus: CosetSum     # the quotient multiset unflipped, onto the su(2) torus in k2


def _coset_sum(scale: int, cosets, points, multisets, denominator: Fraction) -> CosetSum:
    """The integer data of one kind of coset sum on the chart of ``points``
    (b and w, or w alone), with each flip's directions as torus pairings in
    ``multisets``, the unflipped first.  ``cosets`` holds per coset its
    word, the int images of w and b and its kernel covectors.  S_b negates
    b and fixes w and the kernel roots, which are orthogonal to b, so a
    flipped term reads the negated image of b.  The scale s0 makes every
    direction and every half-sum base integral."""
    s0 = 2 * (scale // gcd(scale, *(x for ms in multisets for p in ms for x in p)))
    r = len(points)
    prefactors = [(-1) ** sum(ms.values()) for ms in multisets]
    terms = tuple(
        (tuple(tuple(k * x for x in v) for k, v in ((-s0 if flip else s0, b), (s0, w))[-r:]),
         kernel, (-1) ** (len(word) + flip) * prefactor, flip)
        for word, w, b, kernel in cosets for flip, prefactor in enumerate(prefactors)
    )
    items = tuple(tuple(sorted((tuple(x * s0 // scale for x in p), m) for p, m in ms.items()))
                  for ms in multisets)
    return CosetSum(Chart(points, s0), terms, items, denominator)


@functools.lru_cache(maxsize=None)
def oracle_plan(ctx: SubgroupContext) -> OraclePlan:
    """The form's plan (memoized per context): one coset walk, and the torus
    pairings of the subgroup roots and the directions read once for both kinds."""
    b, w, _, _ = ctx.torus_points
    scale, points, _ = ctx.rd.points
    kernel = [points[i] for i in ctx.kernel]
    # the Weyl polynomial's normalizer, the kernel-root product at their
    # half-sum rho_Z: (rho_Z, g) = (sum of the a, a) / (2 D^2) for a = D g
    total = tuple(map(sum, zip(*kernel)))
    normalizer = Fraction(prod(sum(map(mul, total, a)) for a in kernel),
                          (2 * scale * scale) ** len(kernel))
    walk = _kernel_cosets(ctx, (b, *kernel))
    # the kernel images x / D as weights over their least common denominator t
    t = lcm(1, *(scale // gcd(scale, *x) for _, images in walk for x in images[2:]))
    cosets = [(word, w1, b1, tuple(tuple(t * xi // scale for xi in x) for x in xs))
              for word, (w1, b1, *xs) in walk]
    # the directions: the k2 positive roots outside the kernel (which pair to
    # 0 with w) and the noncompact roots, S_b negating their pairing with b,
    # without the subgroup's roots
    h_roots = set(ctx.torus_pairings(int_point(g, scale) for g in ctx.h_roots))
    quotient = Counter((0, tw) for _, tw in ctx.torus_pairings(
        points[i] for i in ctx.k2_factor.positions) if tw and (0, tw) not in h_roots)
    noncompact = ctx.torus_pairings(p for p, c in zip(points, ctx.rd.compact) if not c)
    if (0, 0) in noncompact:
        raise InternalError("noncompact root projects to zero")
    flips = [quotient + Counter(p for p in ((sign * t1, t2) for t1, t2 in noncompact)
                                if p not in h_roots) for sign in (1, -1)]
    denominator = normalizer * t ** len(kernel)
    return OraclePlan(
        tuple(word for word, *_ in cosets),
        _coset_sum(scale, cosets, (b, w), flips, denominator),
        _coset_sum(scale, cosets, (w,), [{(tw,): m for (_, tw), m in quotient.items()}],
                   denominator),
    )


def torus_restriction_sides(ctx: SubgroupContext, lam: Weight, cfg: OracleConfig):
    """Both sides of the torus restriction identity for the k2-representation
    attached to lam, on the chart of the right side: the closed form's fibre
    (``ctx.fibre``) as {point: multiplicity}, antisymmetrized where w_line is
    a subgroup root (sp(1, q): the strings' characters), and the signed
    coset sum of Heaviside convolutions."""
    fibre, den = ctx.fibre(lam)
    _, lam2 = decompose_parameter(ctx, lam)
    rhs = _coset_series(ctx, lam2, cfg, torus=True)
    signs = (1, -1) if ctx.w_line in ctx.h_roots else (1,)  # strings k >= 1: no points meet
    lhs: dict = {}
    for n, m in fibre.items():
        x, r = divmod(rhs.chart.scale * n * ctx.torus_points[3], den)
        if r:
            raise InternalError(f"a fibre weight of {format_weight(lam)} is off the chart lattice")
        lhs.update({(sign * x,): sign * m for sign in signs})
    return lhs, rhs


def _coset_series(ctx: SubgroupContext, lam: Weight, cfg: OracleConfig,
                  torus: bool = False) -> ProductSum:
    """Signed distributional series of one loop over the plan's cosets s.

    Each (coset, flip) term, with w lam = S_b s lam when flipped and s lam
    otherwise, contributes sign * prefactor * weylpoly(w lam) at the
    projection of w lam, convolved with the Heaviside series of its flip's
    multiset: the branching series, or with ``torus`` (lam the k2 part) the
    right side of the torus identity.  On the plan's integer data, each
    term's base point and int numerator are computed once; the returned
    ``ProductSum`` evaluates the memoized windows at the points it is asked
    for, over one denominator.  Each product's grid size, which bounds the
    enumeration of its window, is checked before the windows are built, and
    their total size before the sweep over them.  The caller validates lam.
    """
    plan = oracle_plan(ctx)
    kind = plan.torus if torus else plan.series
    point, den = scaled_point(lam)
    multisets = [{tuple(den * x for x in d): m for d, m in ms} for ms in kind.multisets]
    for ms in multisets:
        check_size(product_size(ms, cfg.step_bound),
                   f"a Heaviside product at step bound {cfg.step_bound}")
    products = tuple(product_region(ms, cfg.step_bound) for ms in multisets)
    terms = []
    for maps, kernel, num, i in kind.terms:
        for c in kernel:
            num *= sum(map(mul, c, point))
        if not num:
            raise InternalError("Weyl polynomial vanished on a coset representative")
        terms.append((tuple(sum(map(mul, row, point)) for row in maps), num, i))
    # every term's coefficient is its numerator over this one denominator
    series = ProductSum(tuple(terms), products,
                        kind.denominator * den ** len(ctx.kernel),
                        kind.chart.at_scale(kind.chart.scale * den))
    check_size(series.window_size(), f"the oracle's windows at step bound {cfg.step_bound}")
    return series


def restriction_series(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> ProductSum:
    """Signed distributional series of a quaternionic parameter (see _coset_series)."""
    require_proper_subgroup(
        ctx, "the oracle needs a Heaviside direction to convolve, that is d >= 2 "
        "noncompact root pairs")
    validate_small_dominant(ctx, lam)
    return _coset_series(ctx, lam, cfg)


@functools.lru_cache(maxsize=None)
def _positive_side(ctx: SubgroupContext):
    """The test of a series point for the side where (mu, g) > 0 for every
    side root g (``SubgroupContext.sign_test``, memoized per context)."""
    return ctx.sign_test(ctx.side_roots)


def check_antisymmetry(ctx: SubgroupContext, series: ProductSum):
    """On the certified region of a branching series of ctx: zero on the S_b
    wall, where the pairing with b is 0, and odd across it; S_b is the sign
    flip ``ctx.mirrors[0]``.  Only the certified nonzero coefficients are
    read, among ``nonzero_points``: S_b is an involution, so a certified zero
    whose mirror is certified and nonzero is caught from the mirror."""
    chart = series.chart
    signs, _ = ctx.mirrors[0]
    nonzero = [(p, c) for p in series.nonzero_points() if (c := series.coefficient(p))]
    problems = [("wall", chart.to_weight(p), c) for p, c in nonzero if not p[0]]
    for p, c in nonzero:
        cm = series.coefficient(tuple(map(mul, signs, p)))
        if cm is not None and cm != -c:
            problems.append(("mirror", chart.to_weight(p), (c, cm)))
    return problems


def extract_multiplicities(ctx: SubgroupContext, series: ProductSum) -> BranchingTable:
    """Branching table read off the positive side of the antisymmetrized series.

    Only certified weights are reported; a negative coefficient on the
    positive side signals an antisymmetrization failure (bug or insufficient
    truncation) and raises InternalError, as does a failed family check.
    Every certified nonzero coefficient has a nonzero window total, so only
    the positive-side points among ``nonzero_points`` are certified and
    evaluated.  The table is keyed by the series' chart points.
    """
    chart = series.chart
    positive = _positive_side(ctx)
    entries = {}
    for p in series.nonzero_points():
        if not positive(p):
            continue
        c = series.coefficient(p)
        if c is None:
            continue
        ctx.check_extracted(series, p, c)
        if c < 0:
            raise InternalError(f"antisymmetrization failure at "
                                f"{format_weight(chart.to_weight(p))}: coefficient {c}")
        entries[p] = c
    return BranchingTable(entries, None, ctx.rd.label, None, chart)


@record
class ComparisonReport:
    agree: bool
    compared: int
    mismatches: tuple


def compare(ctx: SubgroupContext, series: ProductSum, closed: BranchingTable) -> ComparisonReport:
    """Compare a closed-form table against the oracle extraction on the full
    certified region.  Every candidate parameter (from either side) within
    the closed table's pairing bound that the truncated series certifies
    must match exactly; uncertified candidates are skipped.

    Candidates are the extracted entries (the certified positive points
    with a nonzero window total) and the closed table's entries, both as
    chart points (``BranchingTable.points_on``); the pairing bound and the
    positive side are int tests on them, and only closed entries missing
    from the extraction are evaluated here.  Mismatches are (weight,
    closed, oracle) triples sorted by weight.
    """
    chart = series.chart
    positive, bound = _positive_side(ctx), closed.pairing_bound
    # <mu, beta-check> = 2 (mu, b) / (D (beta, beta)) = 2 D p[0] / (s (b, b))
    den, k = chart.scale * ctx.torus_points[2], 2 * ctx.rd.points[0]

    def within(p):
        return k * p[0] * bound.denominator <= bound.numerator * den

    candidates = {p: (m, None) for p, m in closed.points_on(chart).items()}
    for p, got in extract_multiplicities(ctx, series).points_on(chart).items():
        candidates[p] = candidates.get(p, (0,))[0], got
    mismatches = []
    compared = 0
    for p, (want, got) in candidates.items():
        if not within(p):
            continue
        if got is None:
            if not positive(p):
                continue
            got = series.coefficient(p)
            if got is None:
                continue  # not certified by the truncation
        compared += 1
        if got != want:
            mismatches.append((chart.to_weight(p), want, got))
    mismatches.sort()
    return ComparisonReport(not mismatches, compared, tuple(mismatches))


def require_compared(report: ComparisonReport, cfg: OracleConfig) -> ComparisonReport:
    """The report, unless it compared no point: "agree" would then mean nothing."""
    if not report.compared:
        raise DomainError(
            f"the oracle certified no point to compare at step bound {cfg.step_bound}; "
            "raise the step bound"
        )
    return report


def verify_closed_form(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> ComparisonReport:
    """Closed-form table at cutoff = step bound against the oracle series."""
    series = restriction_series(ctx, lam, cfg)  # validates lam
    report = compare(ctx, series, _branching_table(ctx, lam, cfg.step_bound))
    return require_compared(report, cfg)
