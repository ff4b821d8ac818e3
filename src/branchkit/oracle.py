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
data (``oracle_plan``), read on the context's torus pairings: with b, w the
orthogonal int points of beta and w_line (``SubgroupContext.torus_points``),
a weight mu of the subgroup torus has the point s ((mu, b), (mu, w)), and one
of the su(2) torus the point s (mu, w), for a scale s that makes every point
and every half-sum base integral (``lattice.Chart``).  The plan holds one
chart per kind (rank 2 for the branching series, rank 1 for the torus
identity), each flip's multiset as chart points, and per (coset, flip) the
int maps from the scaled parameter to the term's base point and kernel-root
pairings (``CosetSum``).  A request scales lam to ints once and runs its
coset loop on ints; it hashes no Fraction.  Every per-parameter check runs
on every request, so results do not depend on the order of requests.

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
and a closed table keyed by int labels reaches them through one int map;
weights are mapped back only for mismatches and errors.  A request returns a
``formal.ProductSum``: the conjunction of the per-term truncation regions,
stated per point.  A term certifies a point when the offset from its base
lies in its product's step-bound window, where the term adds its value, or
has no decomposition over the product's directions at all.  Each window is
enumerated from its product's region; the dense products are built only
when read, by the self-test and ``check_antisymmetry``.  One sweep over the
windows gives each point its window total; a certified point with a nonzero
coefficient has a nonzero total, so extraction certifies only the
positive-side points with one, and comparison adds only the closed table's
entries, never reading the dense series.  The sizes of the closed table,
the products' grids (which bound the windows) and the windows are checked
against the dimension bound before what they bound is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import DomainError, InternalError
from .formal import DeltaSeries, ProductSum, product_region, product_size
from .lattice import Chart, Weight, format_weight, int_point, reflect_point, scaled_point
from .quaternionic import (
    BranchingTable,
    QuaternionicContext,
    SubgroupContext,
    _branching_table,
    decompose_parameter,
    lam2_weight_table,
    require_proper_subgroup,
    validate_small_dominant,
)
from .repweights import check_size


@dataclass(frozen=True)
class OracleConfig:
    """Truncation depth of the Heaviside series."""

    step_bound: int = 12

    def __post_init__(self):
        if self.step_bound <= 0:
            raise DomainError("the oracle step bound must be positive")


def compact_quotient_weights(ctx: SubgroupContext) -> dict:
    """The torus weights of the compact quotient directions: the projections
    onto the su(2) torus of the k2 positive roots outside the kernel (which
    pair to 0 with w_line), subgroup roots removed, by torus pairing (0, t)."""
    h_roots = _h_pairings(ctx)
    out: dict = {}
    points = ctx.rd.points[1]
    for _, t in ctx.torus_pairings(points[i] for i in ctx.k2_factor.positions):
        if t and (0, t) not in h_roots:
            out[0, t] = out.get((0, t), 0) + 1
    return out


def _h_pairings(ctx: SubgroupContext) -> set:
    """The torus pairings of the subgroup's roots."""
    scale = ctx.rd.points[0]
    return set(ctx.torus_pairings(int_point(g, scale) for g in ctx.h_roots))


def _lowest(x: tuple, d: int) -> tuple:
    """The scaled vector (x, d), x / d, in lowest terms."""
    g = gcd(d, *x)
    return tuple(xi // g for xi in x), d // g


def _reflect_scaled(v: tuple, a: tuple, aa: int) -> tuple:
    """The reflection of the scaled vector v = (X, D) in the int root a, with
    aa = (a, a), as a scaled vector in lowest terms."""
    x, d = v
    k = 2 * sum(map(mul, x, a))
    return _lowest([xi * aa - k * ai for xi, ai in zip(x, a)], d * aa)


def _kernel_cosets(ctx: SubgroupContext, vectors=()) -> tuple:
    """Minimal representatives s of the right cosets W_Z\\W(K2), in order of
    length, as (reduced word, images s^T x of the vectors x, all as scaled
    vectors in lowest terms); s is the product of the word's simple
    reflections, left to right.  W_Z, the reflection group of the kernel
    roots (the k2 roots orthogonal to w_line), is the stabilizer in W(K2)
    of w_line (a stabilizer is generated by the reflections it contains),
    so the cosets W_Z s are in bijection with the orbit points s^T w_line.
    A breadth-first walk over the orbit by simple reflections reaches each
    point first along a shortest word, whose inverse is the minimal
    representative (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).
    """
    scale, points, _ = ctx.rd.points
    simple = [(a, sum(map(mul, a, a))) for a in ctx.k2_factor.int_roots[3]]
    # W(K2) permutes the noncompact positive roots, so every coset of one flip
    # has the multiset of the identity; a simple root's reflection is the same
    # at the factor's scale, which divides D
    noncompact = {p for p, c in zip(points, ctx.rd.compact) if not c}
    if any({reflect_point(x, a, aa) for x in noncompact} != noncompact for a, aa in simple):
        raise InternalError("a compact-factor reflection moves a noncompact positive root")
    first = ((), (_lowest(ctx.torus_points[1], scale), *vectors))
    reps = [first]
    orbit = {first[1][0]}
    frontier = [first]
    while frontier:
        nxt = []
        for word, images in frontier:
            for i, (a, aa) in enumerate(simple):
                y = _reflect_scaled(images[0], a, aa)
                if y in orbit:
                    continue
                orbit.add(y)
                rep = (word + (i,), (y, *(_reflect_scaled(x, a, aa) for x in images[1:])))
                reps.append(rep)
                nxt.append(rep)
        frontier = nxt
    return tuple((word, images[1:]) for word, images in reps)


@dataclass(frozen=True, eq=False)
class CosetSum:
    """One kind of coset sum as integer data.  For lam with common
    denominator den and L = den * lam, the term of a coset s and a flip has
    its base at the point A L of ``chart`` rescaled by den, and coefficient
    factor * prod(c . L) / (denominator * den**len(c's)) over its kernel
    covectors c.  ``factor`` is the sign of s, negated for the flip, times
    the Heaviside prefactor; ``multisets`` hold each flip's directions as
    sorted (point, multiplicity) items of ``chart``."""

    chart: Chart      # the projection's image at the base scale s0
    terms: tuple      # (A, kernel covectors, factor, index into multisets) per (coset, flip)
    multisets: tuple
    denominator: Fraction


@dataclass(frozen=True, eq=False)
class OraclePlan:
    """What the coset sums of one form read besides the parameter."""

    words: tuple[tuple[int, ...], ...]   # minimal representatives of W_Z\\W(K2)
    series: CosetSum    # both flips, projected onto the subgroup torus
    torus: CosetSum     # the quotient multiset unflipped, onto the su(2) torus in k2


def _coset_sum(ctx: SubgroupContext, cosets, normalizer, points, flips, noncompact) -> CosetSum:
    """The integer data of one kind of coset sum, on the chart of ``points``
    (b and w, or w alone).  ``cosets`` holds per coset its word and, per
    flip, the scaled images of the flipped chart points, then of the kernel
    roots.  A flip's directions are the quotient weights and the flipped
    noncompact roots' projections, read by torus pairing (``noncompact``);
    S_b negates the pairing with b."""
    scale, r = ctx.rd.points[0], len(points)
    h_roots, quotient = _h_pairings(ctx), compact_quotient_weights(ctx)
    multisets = []
    for flip in flips:
        ms = dict(quotient)
        for t1, t2 in noncompact:
            p = (-t1 if flip else t1, t2)
            if p == (0, 0):
                raise InternalError("noncompact root projects to zero")
            if p not in h_roots:
                ms[p] = ms.get(p, 0) + 1
        # the torus chart, on w alone, reads the pairing with w
        multisets.append({p[-r:]: m for p, m in ms.items()})
    # a root g pairs to t / D with the chart's points, for t the pairings of D g
    s0 = 2 * lcm(1, *(d for _, per_flip in cosets for images in per_flip for _, d in images[:r]),
                 scale // gcd(scale, *(x for ms in multisets for p in ms for x in p)))
    t = lcm(1, *(d for _, per_flip in cosets for images in per_flip for _, d in images[r:]))
    prefactors = [(-1) ** sum(ms.values()) for ms in multisets]
    terms = tuple(
        (tuple(tuple(s0 // d * xi for xi in x) for x, d in images[:r]),
         tuple(tuple(t // d * xi for xi in x) for x, d in images[r:]),
         (-1) ** (len(word) + flip) * prefactors[i], i)
        for word, per_flip in cosets for i, (flip, images) in enumerate(zip(flips, per_flip))
    )
    return CosetSum(
        Chart(points, s0),
        terms,
        tuple(tuple(sorted((tuple(x * s0 // scale for x in p), m) for p, m in ms.items()))
              for ms in multisets),
        normalizer * t ** len(ctx.kernel),
    )


@functools.lru_cache(maxsize=None)
def oracle_plan(ctx: SubgroupContext) -> OraclePlan:
    """The form's plan (memoized per context), read on the torus pairings."""
    b, w, _, _ = ctx.torus_points
    scale, points, _ = ctx.rd.points
    kernel = [points[i] for i in ctx.kernel]
    # the Weyl polynomial's normalizer, the kernel-root product at their
    # half-sum rho_Z: (rho_Z, g) = (sum of the a, a) / (2 D^2) for a = D g
    total = tuple(map(sum, zip(*kernel)))
    normalizer = Fraction(prod(sum(map(mul, total, a)) for a in kernel),
                          (2 * scale * scale) ** len(kernel))
    kinds = (((b, w), (False, True),
              ctx.torus_pairings(p for p, c in zip(points, ctx.rd.compact) if not c)),
             ((w,), (False,), ()))
    # per kind and flip, the vectors its terms read: the chart's points, then
    # the kernel roots, flipped; S_b negates b and fixes w and the kernel
    # roots, which are orthogonal to b.  The walk carries each distinct one once
    on_kernel = tuple(_lowest(a, scale) for a in kernel)
    reads = [[(*((tuple(-x for x in v) if flip and v is b else v, 1) for v in vectors), *on_kernel)
              for flip in flips] for vectors, flips, _ in kinds]
    index = {v: i for i, v in enumerate(dict.fromkeys(v for kind in reads for vs in kind for v in vs))}
    cosets = _kernel_cosets(ctx, list(index))
    series, torus = (
        _coset_sum(ctx, [(word, [[images[index[v]] for v in vs] for vs in kind])
                         for word, images in cosets], normalizer, *spec)
        for spec, kind in zip(kinds, reads)
    )
    return OraclePlan(tuple(word for word, _ in cosets), series, torus)


def torus_restriction_sides(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig):
    """Both sides of the torus restriction identity for the k2-representation
    attached to lam: the pushed-forward weight table, and the signed coset sum
    of Heaviside convolutions."""
    sigmas, den = ctx.su2_torus(lam2_weight_table(ctx, lam))
    _, lam2 = decompose_parameter(ctx, lam)
    rhs = _coset_series(ctx, lam2, cfg, torus=True)
    w = ctx.torus_points[1]
    return on_chart(rhs.chart, {tuple(Fraction(n * x, den) for x in w): m
                                for n, m in sigmas.items()}), rhs


def on_chart(chart: Chart, mults: dict) -> DeltaSeries:
    """Finite exact series sum_w mults[w] * delta_w on the points of chart."""
    coeffs = {chart.to_point(w): m for w, m in mults.items() if m}
    return DeltaSeries(coeffs, (), chart)


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
    """The test of a series point p, at any scale s, for the side where
    (mu, g) > 0 for every side root g (memoized per context): as
    mu = (p1 b / (b, b) + p2 w / (w, w)) / s, (mu, g) has the sign of
    ((x, b) (w, w), (x, w) (b, b)) . p for x = D g."""
    _, _, bb, ww = ctx.torus_points
    scale = ctx.rd.points[0]
    side = [(tb * ww, tw * bb)
            for tb, tw in ctx.torus_pairings(int_point(g, scale) for g in ctx.side_roots)]
    return lambda p: all(f1 * p[0] + f2 * p[1] > 0 for f1, f2 in side)


def check_antisymmetry(ctx: SubgroupContext, series: ProductSum):
    """On the certified region of a branching series of ctx: zero on the S_b
    wall, where the pairing with b is 0, and odd across it; S_b is the sign
    flip ``ctx.mirrors[0]``."""
    chart = series.chart
    signs, _ = ctx.mirrors[0]
    problems = [
        ("wall", chart.to_weight(p), c)
        for p, c in series.coeffs.items()
        if not p[0] and series.certain_at(p)
    ]
    for p, c in series.coeffs.items():
        cm = series.coefficient(tuple(map(mul, signs, p)))
        if cm is not None and series.certain_at(p) and cm != -c:
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


@dataclass(frozen=True, eq=False)
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
