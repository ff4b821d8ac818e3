"""Finitely truncated formal delta distributions on an integer lattice.

A ``DeltaSeries`` stores integer coefficients on finitely many points plus a
truncation contract.  Points, region bases and directions are tuples of
``int``.  The oracle builds its series on one integer chart per form and
kind (``lattice.Chart``, kept as ``DeltaSeries.chart``): a weight's r <= 2
pairings with the int points of beta and w_line, or of w_line alone, at a
scale that makes every point and every half-sum base integral.  Weights are
mapped back only where reported.

The contract is a conjunction of ``ValidityRegion``s; the series is
guaranteed to agree with the untruncated distribution at every point
certified by all of them.  Queries outside the certified set return ``None``
("unknown"), never 0, so truncated garbage can never be mistaken for an
exact value.

An empty region tuple certifies everything: it is used for finite series
(Dirac combinations) that are exact by construction.  A region with
directions certifies a point x when either

* x = base + sum c_g * g with c_g >= 0 integers and sum c_g <= step_bound
  (the point lies inside the truncated part of the cone), or
* x has no such decomposition at all (the untruncated series vanishes there,
  and the truncation knows it).

Soundness of the decomposition search relies on the direction multiset being
pointed (no nonzero nonnegative combination sums to zero).  This is certified
by an integer covector that is strictly positive on every direction, built on
ints from the directions' coordinates over two of them (``_Cone``); a zero
direction, a set that is not pointed and one of rank above 2 raise DomainError.
For linearly dependent directions the functional also bounds how many steps
any alternative decomposition of a certified point can use, and the
Heaviside factors are expanded far enough to cover all of them.

The pure integer kernels are memoized per process, keyed by their int
inputs: one ``_Cone`` (pivots, covector and search data) per direction
tuple, its minimal step count per offset x - base, and per product region
(``product_region``) the product's window ``_window`` and the dense
Heaviside product ``convolve_multiset``, both read-only.  None of them is
built at import, and what they return depends on their inputs alone, so
results do not depend on the order of requests.  Each series keeps its
verdict per point; series are otherwise immutable and all operations are
pure.

The oracle reads ``product_size``, ``product_region`` and ``ProductSum``:
a signed sum of products translated to its terms' bases, over one
denominator.  A ``ProductSum`` sweeps once through the terms' windows, on
first read, and keeps per point its window total and the set of terms whose
window holds it.  A query reads the total there and certifies each other
term by its cone's covector (a decomposition off the window takes more than
the step bound's steps, and each step raises the covector by at least its
least value on a direction), searching only the offsets that this bound
leaves open.  The points with a nonzero window total are the only ones
where a certified coefficient can be nonzero.  The dense products, and with
them a ``DeltaSeries``'s two fields, are built only when read.
``convolve`` with its contract merge, ``dirac``, ``heaviside``,
``heaviside_power`` and ``convolve_multiset`` serve the self-test and the
tests.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_right
from fractions import Fraction
from math import comb, gcd
from types import MappingProxyType

from .errors import DomainError, InternalError
from .lattice import format_weight, record

Point = tuple[int, ...]
PointMultiset = dict[Point, int]


def _padd(a: Point, b: Point) -> Point:
    return tuple(map(operator.add, a, b))


def _psub(a: Point, b: Point) -> Point:
    return tuple(map(operator.sub, a, b))


def _half(v: Point) -> Point:
    if any(x % 2 for x in v):
        raise DomainError(
            f"half of ({format_weight(v)}) is not an integer point; double the points"
        )
    return tuple(x // 2 for x in v)


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _cross(p: Point, q: Point) -> int:
    return p[0] * q[1] - p[1] * q[0]


class _Cone:
    """Integer search data of one pointed set of distinct directions.

    Let a be the first direction and b the first one off a's line.  The
    pivots are the first coordinates on which the span is injective, and
    ``f`` is a gcd-reduced integer covector on them with ``phi[d] = f . d``
    > 0 on every direction d, which certifies that the set is pointed.  On a
    line f is the sign of a's pivot coordinate.  In a plane every d gets the
    int coordinates (x, y) of d = (x a + y b) / |det| over (a, b), det the
    cross product of their pivot parts; from the extreme rays u, v of these
    coordinates the functional is w -> cross(u, w) / n_u + cross(w, v) / n_v,
    n being the absolute value of a ray's first nonzero coordinate (two
    independent directions get equal weights).  A decomposition is solved for
    exactly over a (and b); the other ("free") directions are enumerated,
    each up to the functional's budget.
    """

    def __init__(self, dirs: tuple[Point, ...]):
        self.rank = 0
        if not dirs:
            return
        for d in dirs:
            if not any(d):
                raise DomainError(
                    f"non-strict multiset: contains the zero direction ({format_weight(d)})"
                )
        a, dim = dirs[0], len(dirs[0])
        self.rank, self.span = 1, (a,)
        self.pivots = (next(k for k in range(dim) if a[k]),)
        self.f = (1 if a[self.pivots[0]] > 0 else -1,)
        b = next((d for d in dirs if not self._in_span(d)), None)
        if b is not None:
            self.rank, self.span = 2, (a, b)
            self.pivots = next((i, j) for i in range(dim) for j in range(i + 1, dim)
                               if a[i] * b[j] - a[j] * b[i])
            if not all(map(self._in_span, dirs)):
                raise DomainError("cannot certify direction sets of rank above 2")
            self.f = self._planar_covector(dirs)
        self.check_span = dim > self.rank
        self.free = tuple(d for d in dirs if d not in self.span)
        self.last = tuple(map(self._project, self.span))
        self.phi = {d: _dot(self.f, self._project(d)) for d in dirs}
        if min(self.phi.values()) <= 0:
            raise DomainError("multiset is not strict: no linear functional is positive on it")

    def _planar_covector(self, dirs: tuple[Point, ...]) -> Point:
        pa, pb = map(self._project, self.span)
        s = 1 if _cross(pa, pb) > 0 else -1
        rays = set()
        for d in dirs:
            pd = self._project(d)
            x, y = s * _cross(pd, pb), s * _cross(pa, pd)
            g = gcd(x, y)
            rays.add((x // g, y // g))
        u = next((r for r in rays if all(_cross(r, w) >= 0 for w in rays)), None)
        v = next((r for r in rays if all(_cross(w, r) >= 0 for w in rays)), None)
        if u is None or v is None:
            raise DomainError("multiset is not strict: directions span a half plane")
        nu, nv = abs(u[0] or u[1]), abs(v[0] or v[1])
        g0, g1 = v[1] * nu - u[1] * nv, u[0] * nv - v[0] * nu
        (ai, aj), (bi, bj) = pa, pb
        f0, f1 = s * (g0 * bj - g1 * aj), s * (g1 * ai - g0 * bi)
        k = gcd(f0, f1)
        return f0 // k, f1 // k

    def _project(self, v: Point) -> Point:
        return tuple(v[k] for k in self.pivots)

    def _in_span(self, v: Point) -> bool:
        if self.rank == 1:
            (u,), (i,) = self.span, self.pivots
            return all(x * u[i] == v[i] * y for x, y in zip(v, u))
        (a, b), (i, j) = self.span, self.pivots
        det = a[i] * b[j] - a[j] * b[i]
        ca = v[i] * b[j] - v[j] * b[i]
        cb = a[i] * v[j] - a[j] * v[i]
        return all(det * x == ca * y + cb * z for x, y, z in zip(v, a, b))

    def _solve_last(self, t: Point):
        """Step count of the unique decomposition of t over the last
        directions, or None when it is not a nonnegative integer one."""
        if self.rank == 1:
            ((a,),) = self.last
            c, r = divmod(t[0], a)
            return None if r or c < 0 else c
        (a0, a1), (b0, b1) = self.last
        det = a0 * b1 - a1 * b0
        ca, ra = divmod(t[0] * b1 - t[1] * b0, det)
        cb, rb = divmod(a0 * t[1] - a1 * t[0], det)
        if ra or rb or ca < 0 or cb < 0:
            return None
        return ca + cb

    def min_steps(self, v: Point):
        """Minimal sum of a nonnegative integer decomposition of v, or None."""
        if not self.rank:
            return None if any(v) else 0
        if self.check_span and not self._in_span(v):
            return None
        t = self._project(v)
        if not self.free:
            return self._solve_last(t)
        budget = _dot(self.f, t)
        if budget < 0:
            return None
        best = None
        stack = [(0, t, budget, 0)]  # (free directions used, rest, its budget, steps)
        while stack:
            idx, t, budget, total = stack.pop()
            if best is not None and total >= best:
                continue
            if idx == len(self.free):
                got = self._solve_last(t)
                if got is not None and (best is None or total + got < best):
                    best = total + got
                continue
            d = self.free[idx]
            dp, pd = self._project(d), self.phi[d]
            for c in range(budget // pd + 1):
                stack.append((idx + 1, tuple(x - c * y for x, y in zip(t, dp)),
                              budget - c * pd, total + c))
        return best


@functools.lru_cache(maxsize=None)
def _cone(dirs: tuple[Point, ...]) -> _Cone:
    """The search data of a pointed set of distinct directions (memoized)."""
    return _Cone(dirs)


@functools.lru_cache(maxsize=None)
def _min_steps(directions: tuple[tuple[Point, int], ...], v: Point):
    """Minimal step count of the offset v over the directions of a region
    (memoized): ``_Cone.min_steps`` of its distinct directions."""
    return _cone(tuple(d for d, _ in directions)).min_steps(v)


@record(eq=True)
class ValidityRegion:
    """Truncated cone {base + sum c_g g : c_g in Z>=0, sum c_g <= step_bound}."""

    base: Point
    directions: tuple[tuple[Point, int], ...]  # sorted (direction, multiplicity)
    step_bound: int

    def min_total_steps(self, x: Point):
        """Minimal total step count decomposing x, or None if x is outside the cone."""
        return _min_steps(self.directions, _psub(x, self.base))

    def certain_at(self, x: Point) -> bool:
        """True when the truncated series is known exact at x (value or known 0)."""
        mt = self.min_total_steps(x)
        return mt is None or mt <= self.step_bound


EXACT: tuple[ValidityRegion, ...] = ()  # empty conjunction: exact everywhere


@record(eq=True)
class DeltaSeries:
    """Finitely supported integer-coefficient distribution with a validity contract.

    ``chart`` is the ``lattice.Chart`` whose integer coordinates the points
    are, when the series was built from weights.
    """

    coeffs: dict  # Point -> int, no zero entries
    regions: tuple[ValidityRegion, ...] = EXACT
    chart: object = None

    @functools.cached_property
    def _verdicts(self) -> dict:
        """certain_at's answer per point asked."""
        return {}

    def coefficient(self, x: Point):
        """Exact coefficient at x, or None when x is outside the contract."""
        if not self.certain_at(x):
            return None
        return self.coeffs.get(x, 0)

    def nonzero_points(self):
        """The points where a certified coefficient can be nonzero: the support."""
        return iter(self.coeffs)

    def certain_at(self, x: Point) -> bool:
        verdicts = self._verdicts
        got = verdicts.get(x)
        if got is None:
            got = verdicts[x] = all(r.certain_at(x) for r in self.regions)
        return got


def dirac(gamma: Point) -> DeltaSeries:
    """The distribution concentrated at one point; exact everywhere."""
    return DeltaSeries({gamma: 1}, EXACT)


def heaviside(gamma: Point, n_steps: int) -> DeltaSeries:
    """Truncation of delta_{g/2} + delta_{g/2+g} + delta_{g/2+2g} + ..."""
    return heaviside_power(gamma, 1, n_steps)


def heaviside_power(gamma: Point, r: int, n_steps: int) -> DeltaSeries:
    """r-fold convolution power of the Heaviside series, built directly from
    the binomial formula: coefficient C(n+r-1, r-1) at (r/2 + n) * gamma.
    The base r * gamma / 2 must be integral."""
    if r < 0:
        raise DomainError("negative Heaviside power")
    if n_steps < 0:
        raise DomainError("negative truncation bound")
    if r == 0:
        return dirac((0,) * len(gamma))
    if not any(gamma):
        raise DomainError("non-strict multiset: Heaviside direction is zero")
    base = _half(tuple(r * x for x in gamma))
    coeffs = {tuple(x + n * y for x, y in zip(base, gamma)): comb(n + r - 1, r - 1)
              for n in range(n_steps + 1)}
    region = ValidityRegion(base, ((gamma, r),), n_steps)
    return DeltaSeries(coeffs, (region,))


def convolve(a: DeltaSeries, b: DeltaSeries) -> DeltaSeries:
    """Full convolution of the stored coefficients with a merged contract.

    Contract merge: when one side is exact everywhere, each of its support
    points translates the other side's regions (conjunction over all of
    them).  When both sides carry a single cone region, bases add, direction
    multisets merge and the step bound is the minimum of the two.
    """
    coeffs: dict = {}
    get, plus = coeffs.get, operator.add
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            w = tuple(map(plus, u, v))
            coeffs[w] = get(w, 0) + cu * cv
    coeffs = {w: c for w, c in coeffs.items() if c}

    if not a.regions and not b.regions:
        return DeltaSeries(coeffs, EXACT)
    if not a.regions or not b.regions:
        exact, cone = (a, b) if not a.regions else (b, a)
        if len(exact.coeffs) * len(cone.regions) > 64:
            raise InternalError("contract explosion convolving a large exact series")
        regions = tuple(
            ValidityRegion(_padd(r.base, u), r.directions, r.step_bound)
            for u in sorted(exact.coeffs)
            for r in cone.regions
        )
        return DeltaSeries(coeffs, regions)
    if len(a.regions) != 1 or len(b.regions) != 1:
        raise InternalError("convolution of multi-region truncated series is not supported")
    ra, rb = a.regions[0], b.regions[0]
    merged: dict = dict(ra.directions)
    for d, m in rb.directions:
        merged[d] = merged.get(d, 0) + m
    region = ValidityRegion(
        _padd(ra.base, rb.base),
        tuple(sorted(merged.items())),
        min(ra.step_bound, rb.step_bound),
    )
    return DeltaSeries(coeffs, (region,))


def product_size(ms: PointMultiset, n_steps: int) -> int:
    """The number of points of the grid of factor steps that
    ``convolve_multiset`` runs through for ms at n_steps: an upper bound on
    the product's support and on the states ``_window`` enumerates, counted
    without building either."""
    if not ms:
        raise DomainError("empty multiset")
    phi = _cone(tuple(sorted(ms))).phi  # also certifies strictness
    top = max(phi.values())
    return functools.reduce(operator.mul, (n_steps * top // f + 1 for f in phi.values()))


def product_region(ms: PointMultiset, n_steps: int) -> ValidityRegion:
    """The region of ``convolve_multiset(ms, n_steps)``, built without the
    product: base the half-sum of ms, its sorted items, the step bound."""
    if not ms:
        raise DomainError("empty multiset")
    items = tuple(sorted(ms.items()))
    base = _half(tuple(sum(m * d[k] for d, m in items) for k in range(len(items[0][0]))))
    return ValidityRegion(base, items, n_steps)


def convolve_multiset(ms: PointMultiset, n_steps: int) -> DeltaSeries:
    """Convolution of Heaviside series over a strict multiset of directions.

    Equals the product of ``heaviside_power`` over the distinct directions.
    Exact on {half-sum + combinations with total steps <= n_steps}; with
    linearly dependent directions each factor is expanded beyond n_steps by
    the positive-functional bound so that every decomposition of a certified
    point is covered.  Memoized per (multiset, n_steps); the coefficients of
    the returned series are read-only.
    """
    return _convolve_multiset(product_region(ms, n_steps))


@functools.lru_cache(maxsize=None)
def _convolve_multiset(region: ValidityRegion) -> DeltaSeries:
    phi = _cone(tuple(d for d, _ in region.directions)).phi  # also certifies strictness
    max_phi = max(phi.values())

    result = None
    for d, m in region.directions:
        factor = heaviside_power(d, m, region.step_bound * max_phi // phi[d])
        result = factor if result is None else convolve(result, factor)
    return DeltaSeries(MappingProxyType(result.coeffs), (region,))


@functools.lru_cache(maxsize=None)
def _window(region: ValidityRegion):
    """{point: coefficient} of the product of ``region`` on its window
    {base + sum c_g g : c_g in Z>=0, sum c_g <= step bound}, the points it
    certifies with a decomposition (memoized, read-only).

    The coefficient at a point is the sum, over its decompositions
    sum c_d d on the distinct directions, of prod C(c_d + m_d - 1, m_d - 1):
    a value of a vector partition function.  With phi the cone's covector,
    every decomposition of a window point has level sum c_d phi_d at most
    n max phi, so the decompositions are enumerated one direction at a time
    up to that level, and per point the weights and the least step count
    accumulate; the points with at most n steps are the window."""
    phi = _cone(tuple(d for d, _ in region.directions)).phi  # also certifies strictness
    top = region.step_bound * max(phi.values())
    states = {region.base: (0, 1, 0)}  # point: (level, weight, least steps)
    for d, m in region.directions:
        step, nxt = phi[d], {}
        get, plus = nxt.get, operator.add
        weights = [comb(c + m - 1, m - 1) for c in range(top // step + 1)]
        for p, (level, w, s) in states.items():
            for c in range((top - level) // step + 1):
                got = get(p)
                if got is None:
                    nxt[p] = (level, w * weights[c], s + c)
                else:
                    nxt[p] = (level, got[1] + w * weights[c], min(got[2], s + c))
                p, level = tuple(map(plus, p, d)), level + step
        states = nxt
    n = region.step_bound
    return MappingProxyType({p: w for p, (_, w, s) in states.items() if s <= n})


class ProductSum:
    """The series sum_t num_t * P_t(x - b_t) / denominator of translated
    Heaviside products P_t, read from one sweep over the terms' windows.

    ``products`` holds each product's region (``product_region``: the
    half-sum base B, the multiset's items and the step bound n), not the
    product.  ``terms`` holds (b_t, num_t, index into ``products``) with int
    bases and numerators; the denominator is a positive Fraction.  Its
    contract is the conjunction of the products' regions translated to the
    terms' bases, stated per point: a term certifies x when x - b_t lies in
    its product's window (``_window``), where it adds num_t * P_t(x - b_t),
    or has no decomposition over the product's directions at all, where the
    product is 0 and known to be.

    The sweep, built on first read, runs once through every term's window
    and maps each point, in first-seen order, to its window total and the
    bitmask of the terms whose window holds it.  ``coefficient`` reads the
    total there and visits only the terms that do not cover x and whose
    covector bound x reaches.  With g a product's cone covector (``_Cone.f``
    on the pivots), g . x < g . (b_t + B) + (n + 1) min phi certifies a term
    with no search, because a decomposition of x - b_t - B outside the
    window takes at least n + 1 steps and each step adds at least min phi to
    g; the terms' bounds are sorted once per product, so the others are
    found by bisection.  Only those are searched (``_min_steps``).  The
    total is divided once (exactly, or InternalError) and the verdict kept.
    A certified point with a nonzero coefficient has a nonzero window total,
    so ``nonzero_points`` yields every point a reader of certified nonzero
    values needs; ``candidate_points`` yields every point of the windows.
    ``coeffs`` (the whole truncated sum, off the dense products) and
    ``regions`` are built on first access, for readers of the dense series.
    """

    def __init__(self, terms: tuple, products: tuple, denominator: Fraction, chart):
        self.terms = terms
        self.products = products
        self.denominator = denominator
        self.chart = chart
        self._windows = [_window(r) for r in products]
        self._values: dict = {}

    def window_size(self) -> int:
        """The total size of the terms' windows, counted with repeats: what
        the sweep runs through."""
        return sum(len(self._windows[i]) for _, _, i in self.terms)

    @functools.cached_property
    def _sweep(self) -> dict:
        """{point: [window total, bitmask of the terms covering it]}, in
        first-seen order over the terms and their windows."""
        sweep: dict = {}
        get = sweep.get
        for k, (b, num, i) in enumerate(self.terms):
            bit, window = 1 << k, self._windows[i]
            if len(b) == 2:
                b0, b1 = b
                moved = [(x + b0, y + b1) for x, y in window]
            else:
                moved = [_padd(o, b) for o in window]
            for p, c in zip(moved, window.values()):
                entry = get(p)
                if entry is None:
                    sweep[p] = [num * c, bit]
                else:
                    entry[0] += num * c
                    entry[1] |= bit
        return sweep

    @functools.cached_property
    def _bounds(self) -> tuple:
        """Per product (its covector g on the pivots, the sorted bounds
        g . (b_t + B) + (n + 1) min phi of its terms, those terms' indices)."""
        out = []
        for i, region in enumerate(self.products):
            cone = _cone(tuple(d for d, _ in region.directions))
            g = [0] * len(region.base)
            for k, f in zip(cone.pivots, cone.f):
                g[k] = f
            offset = _dot(g, region.base) + (region.step_bound + 1) * min(cone.phi.values())
            ranked = sorted((_dot(g, b) + offset, k)
                            for k, (b, _, j) in enumerate(self.terms) if j == i)
            out.append((tuple(g), [bound for bound, _ in ranked], [k for _, k in ranked]))
        return tuple(out)

    def candidate_points(self):
        """Every point of the terms' windows, once each, in first-seen order."""
        return iter(self._sweep)

    def nonzero_points(self):
        """The points where a certified coefficient can be nonzero: the
        windows' points with a nonzero total, in first-seen order."""
        return (p for p, (total, _) in self._sweep.items() if total)

    def coefficient(self, x: Point):
        """Exact coefficient at x, or None when x is outside the contract."""
        values = self._values
        if x in values:
            return values[x]
        total, mask = self._sweep.get(x, (0, 0))
        for region, (g, bounds, ks) in zip(self.products, self._bounds):
            for k in ks[:bisect_right(bounds, _dot(g, x))]:
                if mask >> k & 1:
                    continue
                offset = _psub(_psub(x, self.terms[k][0]), region.base)
                if _min_steps(region.directions, offset) is not None:
                    values[x] = None
                    return None
        values[x] = got = self._divide(total)
        return got

    def certain_at(self, x: Point) -> bool:
        return self.coefficient(x) is not None

    def _divide(self, total: int) -> int:
        den = self.denominator
        q, r = divmod(total * den.denominator, den.numerator)
        if r:
            raise InternalError("coset sum produced a non-integer coefficient")
        return q

    @functools.cached_property
    def coeffs(self) -> dict:
        """Every nonzero coefficient of the truncated sum, certified or not,
        read off the dense products."""
        acc: dict = {}
        get = acc.get
        for b, num, i in self.terms:
            for p, c in _convolve_multiset(self.products[i]).coeffs.items():
                p = _padd(p, b)
                acc[p] = get(p, 0) + num * c
        return {p: q for p, q in ((p, self._divide(c)) for p, c in acc.items()) if q}

    @functools.cached_property
    def regions(self) -> tuple[ValidityRegion, ...]:
        """The contract as regions: each term's product region at its base."""
        return tuple(ValidityRegion(_padd(self.products[i].base, b), self.products[i].directions,
                                    self.products[i].step_bound) for b, _, i in self.terms)
