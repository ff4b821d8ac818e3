"""Branching of quaternionic discrete series to the distinguished su(2,1)
subalgebra: the embedding data, parameter decomposition, the closed-form
branching table, dominance verification, and the admissibility decision for
positive systems containing the compact one.

``SubgroupContext`` is the one context the oracle reads, for both branching
families: ``QuaternionicContext`` adds the su(2,1) data, and
``specialcases.Sp1qContext`` the sp(1, 1) data of sp(1, q), the quaternionic
form of type C.  Both are built by ``SubgroupContext.build`` on the root
datum's int data by position: compactness, beta's position and so k2, with
no Fraction hashed; k2's simple roots and half-sum, its kernel roots and the
projections onto the subgroup and su(2) tori (int pairings with beta and
w_line, ``SubgroupContext.torus_points``) are read on ``rd.points`` on first use.
The oracle's series live on those pairings, so every series symmetry the
context names (``mirrors``) is a sign flip of them.

Conventions locked against the distributional oracle (see ``oracle``):

* The su(2,1) copy is spanned by the root spaces of {a, b} where b is the
  maximal root of the small positive system and a is a noncompact simple
  root with 2(b,a)/(a,a) = 1.  Its roots inside the ambient system are
  {+-a, +-b, +-(b-a)} and the induced positive system is {b-a, a, b} with
  fundamental weights L1 = (2b-a)/3 (vanishing on the coroot of a) and
  L2 = (a+b)/3, so L1 + L2 = b.
* Parameters mu of the branching table sit at
      mu = lam1 + q(nu) + ((d-1)/2 + p) L1 + ((d-1)/2 + q) L2
  for p, q >= 0 and nu a torus weight of the k2-representation attached to
  lam, with multiplicity M(lam2, nu) C(p+d-2, d-2) C(q+d-2, d-2) summed over
  all (nu, p, q) landing on mu.  The (d-1)/2 offset comes from the half-sum
  base of the Heaviside powers; the oracle comparison pins it down.
* Every such mu lies in span(a, b), so the table keys it by its doubled
  su(2,1) labels (A1, A2) = (2<mu, a-check>, 2<mu, (b-a)-check>), two ints
  with mu = (A1 L2 + A2 L1) / 2 (``table_coords``).  lam1 is read once and
  q(nu) once per value of nu's int pairing with w_line, exactly; the offset
  adds (d-1, d-1) and the step (p, q) adds (2q, 2p).  Dominance is the sign
  of A1 and A2, and weights are built only for output, from int numerators
  over one denominator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, mul, sub

from .errors import DomainError, InternalError
from .lattice import (
    Chart,
    InnerProductForm,
    IntBasis,
    Weight,
    WeightEntries,
    coroot_pairing,
    format_weight,
    inner,
    int_point,
    map_point,
    scaled_point,
    wneg,
    wscale,
    wsub,
)
from .repweights import (
    CompactFactor,
    cached_freudenthal,
    check_size,
    hc_to_highest_weight,
    restrict_weights,
    validate_hc_parameter,
)
from .rootsystems import (
    PositiveSystem,
    RootDatum,
    quaternionic_root_datum,
    small_system,
)


@dataclass(frozen=True, eq=False)
class SubgroupContext:
    """What the oracle reads from a branching family.  k2 is spanned by the
    compact roots orthogonal to beta; the subgroup torus is spanned by the
    orthogonal pair (beta, w_line), and w_line also spans the su(2) torus
    inside k2, so one pair of int pairings serves every family.  A series
    point is s ((mu, b), (mu, w)) for b, w the int points of beta, w_line
    (``torus_points``): a mirror (signs, sign) says that the series at the
    point with its coordinates multiplied by signs is sign times the series
    at the point.  S_b, first, negates the pairing with b."""

    rd: RootDatum
    beta: Weight             # the maximal root, compact
    w_line: Weight           # spans the su(2) torus inside k2
    h_roots: tuple[Weight, ...]   # roots of the subgroup, on the subgroup torus
    side_roots: tuple[Weight, ...]   # the multiplicities sit where every (mu, g) > 0
    mirrors: tuple           # (signs, sign): series symmetries, (S_b, -1) first
    k2_factor: CompactFactor

    @classmethod
    def build(cls, rd: RootDatum, beta: Weight, w_line: Weight, h_positive, side_roots,
              mirrors, **family):
        """The context of class cls, for beta the highest root of rd: k2 is
        the compact positive roots other than beta, which the highest-root
        rule puts orthogonal to beta, and h_roots the h_positive roots with
        their negatives."""
        if beta != rd.positive[rd.highest]:
            raise InternalError("beta is not the highest root of its root datum")
        k2 = tuple(i for i, c in enumerate(rd.compact) if c and i != rd.highest)
        return cls(
            rd=rd,
            beta=beta,
            w_line=w_line,
            h_roots=h_positive + tuple(map(wneg, h_positive)),
            side_roots=side_roots,
            mirrors=mirrors,
            k2_factor=CompactFactor(rd.form, tuple(rd.positive[i] for i in k2), rd, k2),
            **family,
        )

    @property
    def form(self) -> InnerProductForm:
        return self.rd.form

    @functools.cached_property
    def kernel(self) -> tuple[int, ...]:
        """The positions in ``rd.positive`` of the k2 roots orthogonal to
        w_line, killed by the projection onto the subgroup torus."""
        points, w = self.rd.points[1], self.torus_points[1]
        return tuple(i for i in self.k2_factor.positions if not sum(map(mul, points[i], w)))

    @property
    def kernel_positive(self) -> tuple[Weight, ...]:
        return tuple(self.rd.positive[i] for i in self.kernel)

    @functools.cached_property
    def torus_points(self):
        """(b, w, (b, b), (w, w)) for b, w the int points of beta, w_line in
        the root lattice at the scale D of ``rd.points``: x / D projects onto
        the subgroup torus as ((x, b) b / (b, b) + (x, w) w / (w, w)) / D and
        onto the su(2) torus as the second term (built on first use)."""
        scale, points, _ = self.rd.points
        b, w = points[self.rd.highest], int_point(self.w_line, scale)
        return b, w, sum(map(mul, b, b)), sum(map(mul, w, w))

    def torus_pairings(self, points) -> list:
        """((x, b), (x, w)) per int point x = D g of a root g (see
        ``torus_points``)."""
        b, w, _, _ = self.torus_points
        return [(sum(map(mul, x, b)), sum(map(mul, x, w))) for x in points]

    def su2_torus(self, table) -> tuple[dict, int]:
        """({n: multiplicity}, E): a weight table pushed onto the su(2)
        torus, a weight of pairing n with w projecting to n w / E."""
        _, w, _, ww = self.torus_points
        return restrict_weights(table, w), table.scale * ww

    def check_extracted(self, series, p: tuple, c: int) -> None:
        """Family check on a certified positive-side coefficient c of a
        branching series at its point p; raises InternalError on failure.
        The base checks nothing here: ``oracle.check_antisymmetry`` covers
        the series."""


@dataclass(frozen=True, eq=False)
class QuaternionicContext(SubgroupContext):
    """Embedding data for one quaternionic real form: w_line = beta - 2 alpha."""

    psi: PositiveSystem      # the small positive system
    alpha: Weight            # noncompact simple root with <beta, alpha-check> = 1
    fw1: Weight              # fundamental weight L1, (L1, alpha) = 0
    fw2: Weight              # fundamental weight L2, L1 + L2 = beta
    d: int                   # half the number of noncompact positive roots

    def key_basis(self):
        """The closed table's key (A1, A2) = (2<mu, alpha-check>,
        2<mu, (beta-alpha)-check>) stands for mu = (A1 L2 + A2 L1) / 2: the
        basis (L2/2, L1/2) and its duals, twice the two coroots."""
        simple = (self.alpha, wsub(self.beta, self.alpha))
        return ((wscale(Fraction(1, 2), self.fw2), wscale(Fraction(1, 2), self.fw1)),
                tuple(wscale(4 / inner(self.form, g, g), g) for g in simple))


@functools.lru_cache(maxsize=None)
def quaternionic_context(label: str) -> QuaternionicContext:
    """Build and verify the full embedding context for a form label (memoized)."""
    rd = quaternionic_root_datum(label)
    psi, beta, alpha = small_system(rd)
    scale, points, _ = rd.points
    b, a = points[rd.highest], int_point(alpha, scale)
    ab = sum(map(mul, a, b))
    if 2 * ab != sum(map(mul, a, a)) or 2 * ab != sum(map(mul, b, b)):
        raise InternalError("alpha and beta do not span an su(2,1) root system")
    b_minus_a = tuple(map(sub, b, a))
    if b_minus_a not in set(points):  # beta - alpha >= 0, so it is a root if positive
        raise InternalError("beta - alpha is not a root")
    # l1 = 3 D L1 and l2 = 3 D L2: L1 pairs to 0 with alpha-check and to 1
    # with (beta - alpha)-check, L2 the other way round
    l1, l2 = tuple(2 * x - y for x, y in zip(b, a)), tuple(map(add, a, b))
    if sum(map(mul, l1, a)) or 2 * sum(map(mul, l1, b_minus_a)) != 3 * sum(
            map(mul, b_minus_a, b_minus_a)):
        raise InternalError("fundamental weight L1 fails its defining pairings")
    if 2 * sum(map(mul, l2, a)) != 3 * sum(map(mul, a, a)) or sum(map(mul, l2, b_minus_a)):
        raise InternalError("fundamental weight L2 fails its defining pairings")
    noncompact = rd.compact.count(False)
    if noncompact % 2:
        raise InternalError("odd number of noncompact positive roots")
    ctx = QuaternionicContext.build(
        rd, beta, wsub(beta, wscale(2, alpha)), (alpha, beta, wsub(beta, alpha)), (beta,),
        (((-1, 1), -1),), psi=psi, alpha=alpha,
        fw1=tuple(Fraction(x, 3 * scale) for x in l1),
        fw2=tuple(Fraction(x, 3 * scale) for x in l2), d=noncompact // 2,
    )
    _verify_projections(ctx)
    return ctx


def _verify_projections(ctx: QuaternionicContext):
    """The involution g -> beta - g preserves the noncompact positive roots,
    and their projections onto span(beta, w_line) fall on L1 or L2.  As
    L1, L2 = (beta +- w_line / 3) / 2 lie in that span, the test compares
    the torus pairings (``torus_points``) of 3 D g, 3 D L1 and 3 D L2."""
    scale, points, _ = ctx.rd.points
    b, w, _, _ = ctx.torus_points
    a = int_point(ctx.alpha, scale)
    targets = {(sum(map(mul, l, b)), sum(map(mul, l, w)))
               for l in (int_point(ctx.fw1, 3 * scale), int_point(ctx.fw2, 3 * scale))}
    special = {a, tuple(map(sub, b, a))}
    noncompact = {p for p, c in zip(points, ctx.rd.compact) if not c}
    for p in noncompact:
        if tuple(map(sub, b, p)) not in noncompact:
            raise InternalError("beta - gamma is not a noncompact positive root")
        if p in special:
            continue
        if (3 * sum(map(mul, p, b)), 3 * sum(map(mul, p, w))) not in targets:
            raise InternalError("projection of a noncompact root misses L1, L2")


def require_proper_subgroup(ctx: QuaternionicContext, need: str) -> None:
    """Raise DomainError unless d >= 2: for su(2,1) itself (d = 1) the subgroup
    is the whole group and the restriction is the identity.  ``need`` opens
    the message and says what needs d >= 2."""
    if ctx.d < 2:
        raise DomainError(
            f"{need}, {ctx.rd.label} has d = {ctx.d}: it is su(2,1) itself, and its "
            "restriction to su(2,1) is the identity"
        )


def decompose_parameter(ctx: SubgroupContext, lam: Weight):
    """Split lam into its component along beta and the orthogonal rest, read
    on lam's int point x over den: lam1 = (x, b) b / (den (b, b))."""
    (x, den), (b, _, bb, _) = scaled_point(lam), ctx.torus_points
    c, den = sum(map(mul, x, b)), den * bb
    return (tuple(Fraction(c * y, den) for y in b),
            tuple(Fraction(z * bb - c * y, den) for z, y in zip(x, b)))


def validate_small_dominant(ctx: QuaternionicContext, lam: Weight) -> None:
    """Check lam is a discrete-series parameter dominant for the small system."""
    try:
        validate_hc_parameter(lam, ctx.psi)
    except DomainError as exc:
        raise DomainError(
            "not a quaternionic discrete series parameter (parameter must be "
            "dominant for the small positive system; by the admissibility "
            f"criterion the restriction is otherwise not admissible): {exc}"
        ) from None


def lam2_weight_table(ctx: SubgroupContext, lam: Weight):
    """Weight table of the k2-representation attached to lam (memoized).
    It serves sp(1, q) too: there beta = 2 e0 and k2 is sp(q)."""
    _, lam2 = decompose_parameter(ctx, lam)
    return cached_freudenthal(hc_to_highest_weight(lam2, ctx.k2_factor), ctx.k2_factor)


@functools.lru_cache(maxsize=None)
def table_coords(ctx: SubgroupContext) -> IntBasis:
    """The int coordinates of ctx's closed-table keys, from the context's
    ``key_basis`` (memoized per context; built by the first table)."""
    return IntBasis(*ctx.key_basis())


@dataclass(frozen=True, eq=False)
class BranchingTable:
    """Multiplicities keyed by subgroup-side parameters, with a completeness bound.

    ``by_key`` maps each key to its positive multiplicity.  With ``coords``
    (an ``IntBasis`` or a ``Chart``) a key is an int tuple standing for the
    weight ``coords.to_weight(key)``: a closed table keys its entries on
    ``table_coords(ctx)``, an extracted one on the points of the series'
    chart, and ``points_on`` maps the first to the second by one int
    matrix.  Without ``coords`` the keys are the weights.  ``entries``
    shows every table keyed by weights.

    The table is complete for every mu with <mu, beta-check> <= pairing_bound;
    entries beyond the bound are not reported.  Tables extracted from a
    truncated series carry ``None`` here (their completeness is per weight,
    governed by the series contract).
    """

    by_key: dict
    pairing_bound: Fraction | None
    label: str
    lam: Weight | None
    coords: IntBasis | Chart | None = None

    @functools.cached_property
    def entries(self) -> WeightEntries | dict:
        """Weight -> positive int."""
        if self.coords is None:
            return self.by_key
        return WeightEntries(self.by_key, self.coords.to_weight)

    def sorted_entries(self):
        return sorted(self.entries.items())

    def points_on(self, chart: Chart) -> dict:
        """{point of chart: multiplicity}; InternalError for an entry off the
        chart's lattice."""
        if self.coords is chart:
            return self.by_key
        if self.coords is None:
            return {chart.to_point(mu): m for mu, m in self.by_key.items()}
        linear_map = self.coords.chart_map(chart)
        points = {}
        for key, m in self.by_key.items():
            p = map_point(linear_map, key)
            if p is None:
                raise InternalError(f"weight {format_weight(self.coords.to_weight(key))} "
                                    "is off the chart lattice")
            points[p] = m
        return points


def branching_table(ctx: QuaternionicContext, lam: Weight, cutoff: int) -> BranchingTable:
    """Closed-form branching table for the restriction to the su(2,1) subgroup.

    ``cutoff`` bounds p + q; the table is then complete for all parameters mu
    with <mu, beta-check> <= <lam, beta-check> + (d - 1) + cutoff.  The
    binomials need d >= 2, so su(2,1) itself (d = 1) is rejected.
    """
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    require_proper_subgroup(ctx, "the closed form needs d >= 2 noncompact root pairs")
    validate_small_dominant(ctx, lam)
    return _branching_table(ctx, lam, cutoff)


def _branching_table(ctx: QuaternionicContext, lam: Weight, cutoff: int) -> BranchingTable:
    """``branching_table`` without its checks, for a caller that has made them.

    On the keys of ``table_coords``, L1 is (0, 2) and L2 is (2, 0): lam1 and
    each sigma are read once, exactly, and the (d-1)/2 (L1 + L2) offset and
    the steps p L1 + q L2 are int vectors.  sigma = q_u_k2(nu) depends on nu
    only through its pairing with w_line, so the weights are grouped by it.
    """
    lam1, _ = decompose_parameter(ctx, lam)
    sigmas, den = ctx.su2_torus(lam2_weight_table(ctx, lam))
    check_size(len(sigmas) * (cutoff + 1) * (cutoff + 2) // 2,
               f"the closed table at cutoff {cutoff}")
    d = ctx.d
    coords = table_coords(ctx)
    a1, a2 = (x + d - 1 for x in coords.to_key(lam1))
    binomials = [comb(p + d - 2, d - 2) for p in range(cutoff + 1)]
    steps = [(2 * q, 2 * p, binomials[p] * binomials[q])
             for p in range(cutoff + 1) for q in range(cutoff + 1 - p)]
    w = ctx.torus_points[1]
    entries: dict = {}
    for n, mult in sigmas.items():
        s1, s2 = coords.key_of(tuple(n * x for x in w), den)
        s1, s2 = s1 + a1, s2 + a2
        for dq, dp, c in steps:
            key = (s1 + dq, s2 + dp)
            entries[key] = entries.get(key, 0) + mult * c
    bound = coroot_pairing(ctx.form, lam, ctx.beta) + (d - 1) + cutoff
    return BranchingTable(entries, bound, ctx.rd.label, lam, coords)


def check_table_dominance(ctx: QuaternionicContext, table: BranchingTable):
    """Every parameter must be strictly dominant for the su(2,1) positive
    system {b-a, a, b}; returns the (expected empty) list of violations
    (mu, (mu, alpha), (mu, beta - alpha)).  The test is the sign of the two
    keys of ``table_coords``, read off a table keyed otherwise; the beta
    label is their sum.  Weights are built for violations only."""
    coords = table_coords(ctx)
    if table.coords is coords:
        bad = [coords.to_weight(k) for k in table.by_key if k[0] <= 0 or k[1] <= 0]
    else:
        bad = [mu for mu in table.entries if min(coords.to_key(mu)) <= 0]
    b_minus_a = wsub(ctx.beta, ctx.alpha)
    return [(mu, inner(ctx.form, mu, ctx.alpha), inner(ctx.form, mu, b_minus_a)) for mu in bad]


def admissible_system(ctx: QuaternionicContext, sigma: PositiveSystem) -> bool:
    """Discrete series with parameters dominant for sigma restrict admissibly
    to the su(2,1) subgroup iff sigma is the small system itself.  Needs
    d >= 2, like the closed form and the oracle."""
    require_proper_subgroup(ctx, "the admissibility decision needs d >= 2 noncompact root pairs")
    delta = frozenset(ctx.rd.compact_positive)
    compact = delta | frozenset(map(wneg, delta))
    if sigma.chosen_set() & compact != delta:
        raise DomainError("positive system does not contain the compact positive system")
    return sigma.chosen_set() == ctx.psi.chosen_set()
