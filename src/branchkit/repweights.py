"""Finite-dimensional representation data for compact factors: Freudenthal
weight multiplicities, the Weyl dimension formula, infinitesimal-character to
highest-weight conversion, and pushforward of weight tables along int
functionals.

Everything is exact, and every check on a request's parameter is int
arithmetic: a root datum's and a compact factor's roots are int points at one
scale, built once on first use, and a parameter is read once as an int point
over its denominator, its pairings checked with ``divmod``.  Freudenthal's
recursion runs over the dominant orbit representatives (Moody-Patera, Bull.
AMS 7, 1982), found by Stembridge's walk (Adv. Math. 136, 1998), on the
factor's int roots rescaled to twice the common denominator of the highest
weight and the roots; the table keeps its weights as int points at that
scale, shown as Fractions only on lookup.  A non-integral multiplicity aborts
with InternalError.

Every route from a parameter to a compact-factor weight table, on either
family, goes through ``quaternionic.lam2_weight_table`` and ends in
``cached_freudenthal``, one per-process memo keyed by (highest weight's int
point, factor).

The dimension bound (``BRANCHKIT_DIMENSION_BOUND``) caps the size of a
Freudenthal table, and through ``check_size`` that of a closed-form table and
of the oracle's Heaviside products, each counted before it is built.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log10
from operator import add, mul, sub

from .errors import ConfigurationError, DimensionError, DomainError, InternalError, ResourceError
from .lattice import (
    InnerProductForm,
    Weight,
    WeightEntries,
    format_weight,
    reflect_point,
    scaled_point,
    scaled_points,
    wneg,
    wsub,
)
from .rootsystems import PositiveSystem, RootDatum, simple_positions

DIMENSION_BOUND = 10**7


def dimension_bound() -> int:
    """The bound from BRANCHKIT_DIMENSION_BOUND, or DIMENSION_BOUND when it is
    unset.  Anything but a positive integer raises ConfigurationError."""
    raw = os.environ.get("BRANCHKIT_DIMENSION_BOUND")
    if raw is None:
        return DIMENSION_BOUND
    try:
        value = int(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise ConfigurationError(
        f"BRANCHKIT_DIMENSION_BOUND must be a positive integer, got {raw!r}"
    )


def _decimal(n: int) -> str:
    """The positive int n in decimal, or as "about 10^k" when it has more
    digits than ints convert to text."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{int(log10(n))}"


def check_size(count: int, what: str) -> None:
    """Raise ResourceError when ``what`` could hold more than the dimension
    bound allows; ``count``, an upper bound on its size, is counted before
    anything is allocated."""
    bound = dimension_bound()
    if count > bound:
        raise ResourceError(
            f"{what} would hold up to {_decimal(count)} entries, above the bound {bound} "
            "(BRANCHKIT_DIMENSION_BOUND)"
        )


@dataclass(frozen=True, eq=False)
class CompactFactor:
    """A (possibly reducible) compact root subsystem inside the ambient space,
    given by its positive roots in sorted order.  Its int roots, simple roots
    and half-sum are read on int points on first use: on the points of
    ``datum``, whose positive roots at ``positions`` are this factor's, or on
    its own roots' points."""

    form: InnerProductForm
    positive: tuple[Weight, ...]
    datum: RootDatum | None = None
    positions: tuple[int, ...] = ()

    @classmethod
    def from_positive(cls, form: InnerProductForm, positive) -> "CompactFactor":
        """The factor of the given positive roots, sorted on their int points."""
        _, points = scaled_points(positive := tuple(positive))
        order = sorted(range(len(points)), key=points.__getitem__)
        return cls(form, tuple(positive[i] for i in order))

    @functools.cached_property
    def int_roots(self):
        """(2 D, ((a, (a, a), (a, 2 D rho)), ...), 2 D rho, simple): each
        positive root g as the int point a = D g at their common denominator
        D, with its norm and its pairing with 2 D rho, and the simple roots'
        points (``simple_positions``); <v, g-check> = 2 D (a, v) / (a, a)."""
        if self.datum is None:
            scale, points = scaled_points(self.positive)
        else:  # the datum's points at its scale, divided down to the factor's
            scale, points, _ = self.datum.points
            points = [points[i] for i in self.positions]
            g = gcd(scale, *(x for a in points for x in a))
            scale, points = scale // g, tuple(tuple(x // g for x in a) for a in points)
        two_rho = tuple(map(sum, zip(*points))) or (0,) * self.form.dim
        return (2 * scale, tuple((a, sum(map(mul, a, a)), sum(map(mul, a, two_rho)))
                                 for a in points),
                two_rho, tuple(points[i] for i in simple_positions(points)))

    @functools.cached_property
    def simple(self) -> tuple[Weight, ...]:
        simple = self.int_roots[3]
        return tuple(g for g, (a, _, _) in zip(self.positive, self.int_roots[1]) if a in simple)

    @functools.cached_property
    def rho(self) -> Weight:
        two_d, _, two_rho, _ = self.int_roots
        return tuple(Fraction(x, two_d) for x in two_rho)


def regular_integral_pairings(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """<lam, g-check> per positive root g of rd, by position in rd.positive,
    as ints paired on lam's int point, once lam is checked regular and
    integral.  A failure names the first failing root in the sorted order of
    all roots, as a scan over both signs would: a root and its negative fail
    together."""
    if len(lam) != rd.form.dim:
        raise DimensionError("weight length does not match form dimension")
    point, den = scaled_point(lam)
    scale, points, norms = rd.points  # <lam, g-check> = 2 D (a, lam) / (a, a)
    pairings, bad = [], {}
    for i, (a, aa) in enumerate(zip(points, norms)):
        c, r = divmod(2 * scale * sum(map(mul, a, point)), aa * den)
        if r or not c:
            bad[i] = "not integral" if r else "singular"
        pairings.append(c)
    if bad:
        first, i = min((h, i) for i in bad for h in (rd.positive[i], wneg(rd.positive[i])))
        raise DomainError(f"parameter is {bad[i]} against root {format_weight(first)}")
    return tuple(pairings)


def validate_hc_parameter(lam: Weight, system: PositiveSystem) -> None:
    """Check that lam is regular, integral and dominant for the system."""
    pairings = regular_integral_pairings(system.parent, lam)
    if any(c * s < 0 for c, s in zip(pairings, system.signs)):
        raise DomainError("parameter is not dominant for the given positive system")


def hc_to_highest_weight(lam2: Weight, factor: CompactFactor) -> Weight:
    """Highest weight of the irreducible with infinitesimal character lam2."""
    point, den = scaled_point(lam2)
    m, roots, _, _ = factor.int_roots
    for a, aa, _ in roots:
        c = m * sum(map(mul, a, point))
        if c <= 0:
            raise DomainError("infinitesimal character is not dominant regular")
        if c % (aa * den):
            raise DomainError("infinitesimal character is not integral")
    return wsub(lam2, factor.rho)


def weyl_dimension(hw: Weight, factor: CompactFactor) -> int:
    """Product formula for the dimension of the highest-weight representation:
    the product over positive g of (hw + rho, g) / (rho, g), on int points."""
    point, den = scaled_point(hw)
    m, roots, _, _ = factor.int_roots
    num = total = 1
    for a, aa, r in roots:
        c = m * sum(map(mul, a, point))
        if c < 0 or c % (aa * den):
            raise DomainError("highest weight must be dominant integral")
        # (2 hw + 2 rho, g) / (2 rho, g), both at scale den D^2
        num *= c + den * r
        total *= den * r
    dim, rest = divmod(num, total)
    if rest:
        raise InternalError("Weyl dimension is not an integer")
    return dim


def _dominant_representative(v: tuple, simple) -> tuple:
    """The dominant point of the Weyl orbit of v; ``simple`` holds (a, (a, a))."""
    while True:
        for a, aa in simple:
            if sum(map(mul, v, a)) < 0:
                v = reflect_point(v, a, aa)
                break
        else:
            return v


def _closure(start: tuple, neighbours) -> set:
    """The points reached from start by repeated ``neighbours``, breadth first."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbours(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def _dominant_weights(hw: tuple, positive, simple):
    """All dominant weights of the representation: by Stembridge (Adv. Math.
    136, 1998, Cor. 2.7) each is reached from hw by positive-root steps
    through dominant weights, those that pair nonnegatively with every
    simple root.  From a dominant v, v - g is dominant exactly when
    (v, a) >= (g, a) for the few simple a with (g, a) > 0; those pairings
    are read once, like v's with the simple roots, on nonzero coordinates."""
    entries: dict[int, list] = {}  # coordinate -> [(k, entry)] for the k-th simple root
    for k, (a, _) in enumerate(simple):
        for c, x in enumerate(a):
            if x:
                entries.setdefault(c, []).append((k, x))
    steps = []
    for g in positive:
        pairings: dict[int, int] = {}
        for c, x in enumerate(g):
            if x:
                for k, y in entries.get(c, ()):
                    pairings[k] = pairings.get(k, 0) + x * y
        steps.append((g, [(k, m) for k, m in pairings.items() if m > 0]))

    def neighbours(v):
        on_simple = [0] * len(simple)
        for c, pairs in entries.items():
            x = v[c]
            if x:
                for k, y in pairs:
                    on_simple[k] += x * y
        return (tuple(map(sub, v, g)) for g, needs in steps
                if all(on_simple[k] >= m for k, m in needs))

    return _closure(hw, neighbours)


@dataclass(frozen=True, eq=False)
class WeightMultTable:
    """Complete weight multiplicity table of one irreducible representation:
    the positive multiplicity of each weight v at its int point scale * v."""

    highest: Weight
    factor: CompactFactor
    points: dict
    scale: int

    @functools.cached_property
    def mults(self) -> WeightEntries:
        """Weight -> positive int, built on the first lookup; ``len`` is free."""
        return WeightEntries(self.points, lambda p: tuple(Fraction(x, self.scale) for x in p))

    def dimension(self) -> int:
        return sum(self.points.values())


def freudenthal(hw: Weight, factor: CompactFactor) -> WeightMultTable:
    """Weight multiplicities by Freudenthal's recursion, extended over Weyl
    orbits.  Dimension above the configured bound raises ResourceError."""
    dim = weyl_dimension(hw, factor)  # checks that hw is dominant integral
    check_size(dim, "a representation's weight table")
    top, den = scaled_point(hw)
    two_d, roots, two_rho, simple = factor.int_roots  # at scale D = two_d / 2
    scale = 2 * lcm(two_d // 2, den)
    k = 2 * scale // two_d
    positive = [tuple(k * x for x in a) for a, _, _ in roots]
    simple = [(a, sum(map(mul, a, a))) for a in (tuple(k * x for x in a) for a in simple)]
    rho = tuple(k // 2 * x for x in two_rho)
    top = tuple(scale // den * x for x in top)
    dominant = _dominant_weights(top, positive, simple)

    def norm(v):
        """|v + rho|^2, scaled by scale^2 like every pairing below."""
        return sum((x + r) ** 2 for x, r in zip(v, rho))

    top_norm = norm(top)
    mults: dict = {}
    for v in sorted(dominant, key=lambda v: (-norm(v), v)):
        if v == top:
            mults[v] = 1
            continue
        denom = top_norm - norm(v)
        if denom <= 0:
            raise InternalError("Freudenthal denominator is not positive")
        total = 0
        for g in positive:
            u = tuple(map(add, v, g))
            while True:
                ud = _dominant_representative(u, simple)
                m = mults.get(ud)
                if m is None:
                    if ud not in dominant:
                        break
                    raise InternalError("Freudenthal visited an uncomputed weight")
                total += m * sum(map(mul, u, g))
                u = tuple(map(add, u, g))
        m, r = divmod(2 * total, denom)
        if r:
            raise InternalError("Freudenthal produced a non-integer multiplicity")
        mults[v] = m
    table = {u: m for v, m in mults.items()
             for u in _closure(v, lambda x: (reflect_point(x, a, aa) for a, aa in simple))}
    got = sum(table.values())
    if got != dim:
        raise InternalError(f"weight table sums to {got}, Weyl dimension is {dim}")
    return WeightMultTable(hw, factor, table, scale)


def restrict_weights(table: WeightMultTable, covector) -> dict:
    """Pushforward of the multiplicities along the int functional
    p -> (p, covector) on the table's points; weights with one value have
    their multiplicities summed."""
    out: dict = {}
    for p, m in table.points.items():
        n = sum(map(mul, p, covector))
        out[n] = out.get(n, 0) + m
    return out


def su2_string_decompose(table: WeightMultTable, root: Weight) -> dict:
    """Decompose the table under the su(2) generated by one root.

    Returns {k: N_k} where k >= 1 is the su(2) infinitesimal character in
    units of half the root (an irreducible of dimension k) and N_k its
    multiplicity, computed from the weight profile along the root direction.
    """
    a, d = scaled_point(root)  # <p / scale, root-check> = 2 d (p, a) / (scale (a, a))
    profile = {}
    for n, m in restrict_weights(table, a).items():
        c, r = divmod(2 * d * n, table.scale * sum(map(mul, a, a)))
        if r:
            raise InternalError("non-integral su(2) weight in string decomposition")
        profile[c] = m
    out = {}
    for k in range(1, max(profile, default=-1) + 2):
        n = profile.get(k - 1, 0) - profile.get(k + 1, 0)
        if n < 0:
            raise InternalError("negative su(2) string multiplicity")
        if n:
            out[k] = n
    return out


def cached_freudenthal(hw: Weight, factor: CompactFactor) -> WeightMultTable:
    """``freudenthal``, memoized per process by hw's int point, so that no
    Fraction is hashed, and by factor, by identity (``CompactFactor`` has
    eq=False): the contexts are memoized, so each form passes one factor."""
    return _freudenthal_memo(*scaled_point(hw), factor)


@functools.lru_cache(maxsize=None)
def _freudenthal_memo(point: tuple, den: int, factor: CompactFactor) -> WeightMultTable:
    return freudenthal(tuple(Fraction(x, den) for x in point), factor)
