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
* Every such mu lies in span(a, b), the subgroup torus, so the table keys
  it by its point on the oracle's coordinates s_t ((mu, b), (mu, w)), at
  the least scale s_t that makes L1 / 2 and L2 / 2 integral
  (``SubgroupContext.table_chart``): there L1 = (u, u) and L2 = (u, -u).

Both families state their closed form as data on that chart: a fibre (the
k2 weights on the su(2) torus, or sp(q)'s su(2) strings) and a multiset of
Heaviside directions (``SubgroupContext.fibre`` and ``heaviside``).  One
builder, ``_branching_table``, makes every closed table from it, with one
size count, one completeness bound and one dominance test, the sign test of
the subgroup's positive roots on int points; weights are built only for
output, from int numerators over one denominator.
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
    Weight,
    WeightEntries,
    format_weight,
    int_point,
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
    at the point.  S_b, first, negates the pairing with b.  The closed
    tables key their entries on the same coordinates (``table_chart``)."""

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

    @functools.cached_property
    def table_chart(self) -> Chart:
        """The closed tables' chart: (b, w) at the least scale s_t that makes
        beta / 4, the point (s_t (b, b) / (4 D), 0), integral (built on first
        use).  Then so are L1 / 2 and L2 / 2 = (beta +- w_line / 3) / 4 of a
        quaternionic form, (b, b) / (4 D) times (1, 1) and (1, -1), and e0 =
        beta / 2 and e1 = w_line / 2 of sp(1, q), where (w, w) = (b, b)."""
        b, w, bb, _ = self.torus_points
        return Chart((b, w), Fraction(bb, 4 * self.rd.points[0]).denominator)

    @property
    def half_beta(self) -> int:
        """u, for the point (u, 0) of beta / 2 on ``table_chart``: s_t (b, b) / (2 D)."""
        return self.table_chart.scale * self.torus_points[2] // (2 * self.rd.points[0])

    def fibre(self, lam: Weight) -> tuple[dict, int]:
        """The closed form's K2-fibre of lam on the su(2) torus: ({n:
        multiplicity}, E) for the weights n w / E (``torus_points``)."""
        raise NotImplementedError

    @property
    def heaviside(self) -> tuple:
        """The closed form's Heaviside directions, ((point on ``table_chart``,
        power), ...): each direction pairs to 1 with beta-check, its point
        (u, .) for u = ``half_beta``."""
        raise NotImplementedError

    def sign_test(self, roots):
        """The test of a point p on (b, w), at any scale s, for (mu, g) > 0
        at every root g of roots: as mu = (p1 b / (b, b) + p2 w / (w, w)) / s,
        (mu, g) has the sign of ((x, b) (w, w), (x, w) (b, b)) . p for x = D g."""
        _, _, bb, ww = self.torus_points
        scale = self.rd.points[0]
        covectors = [(tb * ww, tw * bb)
                     for tb, tw in self.torus_pairings(int_point(g, scale) for g in roots)]

        def positive(p):
            for f1, f2 in covectors:
                if f1 * p[0] + f2 * p[1] <= 0:
                    return False
            return True

        return positive

    @functools.cached_property
    def dominant(self):
        """The sign test of the subgroup's positive roots, the first half of
        ``h_roots``: strict dominance for the subgroup (built on first use)."""
        return self.sign_test(self.h_roots[:len(self.h_roots) // 2])

    def check_extracted(self, series, p: tuple, c: int) -> None:
        """Family check on a certified positive-side coefficient c of a
        branching series at its point p; raises InternalError on failure.
        The base, which a quaternionic request runs, checks no mirror per
        point: the series is odd under S_b by the plan's construction (each
        flipped term of ``oracle.oracle_plan`` is the S_b mirror of an
        unflipped one, which a test pins), and AC-9 checks that antisymmetry
        end to end (``oracle.check_antisymmetry``).  sp(1, q) checks its
        three flips at each extracted point (``specialcases.Sp1qContext``)."""


@dataclass(frozen=True, eq=False)
class QuaternionicContext(SubgroupContext):
    """Embedding data for one quaternionic real form: w_line = beta - 2 alpha."""

    psi: PositiveSystem      # the small positive system
    alpha: Weight            # noncompact simple root with <beta, alpha-check> = 1
    fw1: Weight              # fundamental weight L1, (L1, alpha) = 0
    fw2: Weight              # fundamental weight L2, L1 + L2 = beta
    d: int                   # half the number of noncompact positive roots

    def fibre(self, lam: Weight) -> tuple[dict, int]:
        """The k2 weight table of lam pushed onto the su(2) torus: a weight
        of int point p at the table's scale has n = (p, w) and E = scale (w, w)."""
        _, w, _, ww = self.torus_points
        table = lam2_weight_table(self, lam)
        return restrict_weights(table, w), table.scale * ww

    @functools.cached_property
    def heaviside(self) -> tuple:
        """L1 = (u, u) and L2 = (u, -u), each d - 1 times."""
        u = self.half_beta
        return ((u, u), self.d - 1), ((u, -u), self.d - 1)


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


@dataclass(frozen=True, eq=False)
class BranchingTable:
    """Multiplicities keyed by subgroup-side parameters, with a completeness bound.

    ``by_key`` maps each key to its positive multiplicity.  With ``coords``
    (a ``Chart``) a key is an int point standing for the weight
    ``coords.to_weight(key)``: a closed table keys its entries on
    ``ctx.table_chart``, an extracted one on the series' chart, the same
    points (b, w) at a multiple of its scale, and ``points_on`` maps the
    first to the second by one exact int rescale.  Without ``coords``
    the keys are the weights.  ``entries`` shows every table keyed by
    weights.

    The table is complete for every mu with <mu, beta-check> <= pairing_bound;
    entries beyond the bound are not reported.  Tables extracted from a
    truncated series carry ``None`` here (their completeness is per weight,
    governed by the series contract).
    """

    by_key: dict
    pairing_bound: Fraction | None
    label: str
    lam: Weight | None
    coords: Chart | None = None

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
        chart's lattice, or for a table chart with other points or a scale
        that does not divide the chart's."""
        coords = self.coords
        if coords is chart:
            return self.by_key
        if coords is None:
            return {chart.to_point(mu): m for mu, m in self.by_key.items()}
        k, r = divmod(chart.scale, coords.scale)
        if r or coords.points != chart.points:
            raise InternalError("the table's chart is not the chart at a divisor of its scale")
        return {tuple([k * x for x in p]): m for p, m in self.by_key.items()}


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


def _branching_table(ctx: SubgroupContext, lam: Weight, cutoff: int) -> BranchingTable:
    """The closed table of either family, without the checks of lam, for a
    caller that has made them (``branching_table``,
    ``specialcases.sp1q_branching_table``, the oracle checks).

    On ``ctx.table_chart`` an entry sits at lam1 + h / 2 + sigma + sum c_i h_i
    for h_i the directions of ``ctx.heaviside`` with powers m_i, h their sum
    with multiplicity, sigma a fibre point and c_i >= 0 with sum c_i <= cutoff,
    with the fibre's multiplicity times prod C(c_i + m_i - 1, m_i - 1), the
    coefficient of c_i h_i in the m_i-th Heaviside power.  lam1 is the point
    (s_t (lam, b), 0), read on lam's int point, and a fibre weight n w / E
    the point (0, s_t n (w, w) / E), both exactly.  Each direction has first
    coordinate u (``half_beta``), so the table is complete up to
    <mu, beta-check> = a / u + cutoff for (a, 0) the base lam1 + h / 2.
    InternalError for a point off the chart lattice or an entry that is not
    dominant for the subgroup (``check_table_dominance``).
    """
    fibre, den = ctx.fibre(lam)
    check_size(len(fibre) * comb(cutoff + len(ctx.heaviside), cutoff),
               f"the closed table at cutoff {cutoff}")
    chart, (b, w, _, ww) = ctx.table_chart, ctx.torus_points
    point, lam_den = scaled_point(lam)
    a, r = divmod(chart.scale * sum(map(mul, point, b)), lam_den)
    h0, h1 = (sum(p[i] * m for p, m in ctx.heaviside) for i in (0, 1))
    if r or h0 % 2 or h1 % 2:
        raise InternalError(f"the base of {format_weight(lam)} is off the chart lattice")
    a, base = a + h0 // 2, h1 // 2
    steps = [(0, 0, 0, 1)]  # (steps taken, point, coefficient)
    for (d0, d1), m in ctx.heaviside:
        steps = [(n + c, p0 + c * d0, p1 + c * d1, k * comb(c + m - 1, m - 1))
                 for n, p0, p1, k in steps for c in range(cutoff + 1 - n)]
    entries: dict = {}
    for n, mult in fibre.items():
        s, r = divmod(chart.scale * n * ww, den)
        if r:
            sigma = format_weight(Fraction(n * x, den) for x in w)
            raise InternalError(f"weight {sigma} is off the chart lattice")
        for _, p0, p1, k in steps:
            key = (a + p0, base + s + p1)
            entries[key] = entries.get(key, 0) + mult * k
    table = BranchingTable(entries, Fraction(a, ctx.half_beta) + cutoff, ctx.rd.label, lam, chart)
    violations = check_table_dominance(ctx, table)
    if violations:
        shown = "; ".join(map(format_weight, violations[:3]))
        raise InternalError(f"non-dominant parameters in the table: {shown}")
    return table


def check_table_dominance(ctx: SubgroupContext, table: BranchingTable) -> list:
    """The (expected empty) list of the table's parameters that are not
    strictly dominant for the subgroup's positive system, the sign test
    ``ctx.dominant`` of its points on the table's chart, or on
    ``table_chart`` for a table keyed by weights.  Weights are built for
    violations only."""
    chart = table.coords or ctx.table_chart
    return [chart.to_weight(p) for p in table.points_on(chart) if not ctx.dominant(p)]


def admissible_system(ctx: QuaternionicContext, sigma: PositiveSystem) -> bool:
    """Discrete series with parameters dominant for sigma restrict admissibly
    to the su(2,1) subgroup iff sigma is the small system itself.  Needs
    d >= 2, like the closed form and the oracle."""
    require_proper_subgroup(ctx, "the admissibility decision needs d >= 2 noncompact root pairs")
    if any(s < 0 for s, c in zip(sigma.signs, ctx.rd.compact) if c):
        raise DomainError("positive system does not contain the compact positive system")
    return sigma.signs == ctx.psi.signs
