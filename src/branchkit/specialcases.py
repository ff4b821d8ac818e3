"""Restriction results outside the su(2,1) family: the constant answer for
SO(3,2n), the closed-form branching from sp(1,q) to its sp(1,1) subgroup
(checked by the shared distributional oracle in ``oracle``), and the root-set
criterion for admissibility of discrete series of Hermitian forms over the
semisimple factor of K.

The root systems come from ``rootsystems._base_system`` as int points: C_{q+1}
for sp(1, q), and A, C, D, E_6, E_7 for the Hermitian forms.  sp(1, q) is the
quaternionic real form of type C (Gross-Wallach, J. reine angew. Math. 481
(1996)): it takes its root datum, compactness by the highest-root rule
included, from the builder of the quaternionic forms, and its context is a
``quaternionic.SubgroupContext`` with beta = 2 e0 and w_line = 2 e1, so the
oracle's series points and the closed table's points (on the table chart,
at scale 1) are twice a scale times (a, k) for mu = a e0 + k e1, and its
mirrors are the sign flips of e0 and e1.  Its closed form is the shared
builder's (``quaternionic._branching_table``) on the su(2) strings of the
sp(q) factor and the direction e0.  A
Hermitian form labels a root compact when it pairs to 0 with the central
direction z of K; its data share the quaternionic forms' split into positive
roots (``rootsystems.positive_roots``), and its certificates are int points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import ConfigurationError, DomainError, InternalError
from .formal import ProductSum
from .lattice import (
    Weight,
    format_weight,
    identity_form,
    wadd,
    wneg,
    wscale,
    wsub,
)
from .oracle import (
    ComparisonReport,
    OracleConfig,
    _coset_series,
    compare,
    require_compared,
)
from .quaternionic import (
    BranchingTable,
    SubgroupContext,
    _branching_table,
    decompose_parameter,
    lam2_weight_table,
)
from .repweights import (
    regular_integral_pairings,
    su2_string_decompose,
    validate_hc_parameter,
)
from .rootsystems import (
    PositiveSystem,
    RootDatum,
    _base_system,
    _highest_root_datum,
    basis_sum,
    parse_label,
    positive_roots,
    positive_system,
)

# ---------------------------------------------------------------------------
# SO(3, n)


def so3_admissible(n: int):
    """Restriction of discrete series of SO(3, n) to the SO(3) factor.

    For even n >= 2 the answer is always negative; odd n carries no discrete
    series at all and is rejected.
    """
    if n < 2:
        raise ConfigurationError("SO(3, n) requires n >= 2")
    if n % 2:
        raise DomainError("SO(3, %d) has an empty discrete series" % n)
    return (
        False,
        "no discrete series of SO(3, %d) restricts admissibly to the SO(3) factor "
        "(it already fails for the intermediate SO(3, 1), which has no discrete series)"
        % n,
    )


# ---------------------------------------------------------------------------
# sp(1, q) -> sp(1, 1)


@dataclass(frozen=True, eq=False)
class Sp1qContext(SubgroupContext):
    """Root data for sp(1, q) with the sp(1, 1) subalgebra on the first two
    coordinates (basis order: e0 = the sp(1) direction, then the q compact
    coordinates): beta = 2 e0, w_line = 2 e1 and k2 = sp(q).  The
    multiplicities sit on the open quadrant a > 0, k > 0 of mu = a e0 + k e1."""

    q: int
    sigma: PositiveSystem

    def check_extracted(self, series: ProductSum, p: tuple, c: int) -> None:
        """A certified coefficient is off the singular wall a = k, and the
        series is odd under each sign flip of e0 and e1 and even under both,
        wherever the mirror point is certified.  The series chart pairs with
        b = 2 e0 and w = 2 e1, so its points are 2 scale (a, k) and each flip
        negates a coordinate; weights are built for error messages only."""
        if p[0] == p[1]:
            raise InternalError("nonzero coefficient on the singular wall a = k")
        for signs, sign in self.mirrors:
            got = series.coefficient(tuple(map(mul, signs, p)))
            if got is not None and got != sign * c:
                mu = format_weight(series.chart.to_weight(p))
                raise InternalError(f"four-fold antisymmetry fails at {mu}")

    def fibre(self, lam: Weight) -> tuple[dict, int]:
        """The su(2) strings {k: N_k} of lam's sp(q)-representation
        (``sp1q_string_table``), at k e1 = k w / (2 D)."""
        return sp1q_string_table(self, lam), 2 * self.rd.points[0]

    @functools.cached_property
    def heaviside(self) -> tuple:
        """e0 = (u, 0), 2q - 2 times."""
        return ((self.half_beta, 0), 2 * self.q - 2),


@functools.lru_cache(maxsize=None)
def sp1q_context(q: int) -> Sp1qContext:
    """Build the sp(1, q) context on the C_{q+1} system, the quaternionic
    real form of type C, with its compact roots by the highest-root rule."""
    label = "sp1_q:%d" % q
    rd = _highest_root_datum(label, *parse_label(label, "sp1q")[2])
    e0, e1 = (tuple(Fraction(int(i == k)) for i in range(q + 1)) for k in (0, 1))
    beta, w_line = wscale(2, e0), wscale(2, e1)
    return Sp1qContext.build(
        rd, beta, w_line, (beta, w_line, wadd(e0, e1), wsub(e0, e1)), (beta, w_line),
        (((-1, 1), -1), ((1, -1), -1), ((-1, -1), 1)), q=q, sigma=positive_system(rd),
    )


def sp1q_validate(ctx: Sp1qContext, lam: Weight) -> None:
    validate_hc_parameter(lam, ctx.sigma)


sp1q_decompose = decompose_parameter  # lam1 = lam[0] e0, as beta = 2 e0


def sp1q_string_table(ctx: Sp1qContext, lam: Weight) -> dict:
    """su(2)-string content {k: N_k} of the sp(q)-representation attached to lam."""
    return su2_string_decompose(lam2_weight_table(ctx, lam), ctx.w_line)


def sp1q_branching_table(ctx: Sp1qContext, lam: Weight, cutoff: int) -> BranchingTable:
    """Closed form: strings at k e1 contribute N_k C(p + 2q - 3, 2q - 3) at
    (a0 + q - 1 + p) e0 + k e1 for p >= 0, where a0 is the e0-component of lam.

    The q - 1 offset is the half-sum base of the 2(q-1)-fold Heaviside power;
    the distributional oracle pins it down.
    """
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    sp1q_validate(ctx, lam)
    return _branching_table(ctx, lam, cutoff)


def sp1q_restriction_series(ctx: Sp1qContext, lam: Weight, cfg: OracleConfig) -> ProductSum:
    """Signed coset sum encoding the sp(1,1) branching; its coefficients on
    the open quadrant (a > 0, k > 0) are the multiplicities."""
    sp1q_validate(ctx, lam)
    return _coset_series(ctx, lam, cfg)


def sp1q_verify(ctx: Sp1qContext, lam: Weight, cfg: OracleConfig) -> ComparisonReport:
    """Closed form at cutoff = step bound vs oracle extraction on the certified region."""
    series = sp1q_restriction_series(ctx, lam, cfg)  # validates lam
    report = compare(ctx, series, _branching_table(ctx, lam, cfg.step_bound))
    return require_compared(report, cfg)


# ---------------------------------------------------------------------------
# Hermitian forms: admissibility over the semisimple factor of K


@dataclass(frozen=True, eq=False)
class HermitianData:
    """Realized Hermitian form with its holomorphic system and the two root
    sets whose chamber positions decide admissibility over the semisimple
    factor of K.

    A chamber holds s g for the root g at position i of ``rd.positive``, the
    holomorphic system, and s = chamber[i] (``PositiveSystem.signs``).  A
    certificate set holds (position, sign) pairs; ``rd.compact`` marks the
    compact positions.

    ``tube`` records whether the symmetric space is a tube domain.  For tube
    forms, containment of a certificate set in the chamber system marks the
    central ray inside the asymptotic support, so it decides *against*
    admissibility; for non-tube forms containment certifies admissibility.
    This orientation is fixed by the holomorphic-chamber dichotomy (tube:
    never admissible, non-tube: admissible).
    """

    label: str
    rd: RootDatum
    psi_h: PositiveSystem
    certificate: tuple[tuple[int, int], ...]            # the set I
    certificate_conjugate: tuple[tuple[int, int], ...]  # the set I-tilde
    tube: bool


def _su_pq_data(p: int, q: int):
    # e_i - e_j for j = i + p + floor(i (q - p) / p), and e_j - e_i for
    # j = i + p + ceil((i + 1)(q - p) / p), for 0 <= i < p
    n, d = p + q, q - p
    cert = [basis_sum(n, (i, 1), (i + p + i * d // p, -1)) for i in range(p)]
    conj = [basis_sum(n, (i, -1), (i + p - (-(i + 1) * d // p), 1)) for i in range(p)]
    return (q,) * p + (-p,) * q, cert, conj, p == q


def _sp_nr_data(n: int):
    l = n // 2
    cert = [basis_sum(n, (l, 2))] if n % 2 else []
    cert += [basis_sum(n, (k - 1, 1), (n - k, 1)) for k in range(1, l + 1)]
    return (1,) * n, cert, [wneg(g) for g in cert], True


def _so_star_data(n: int):
    l = n // 2
    cert = [basis_sum(n, (k - 1, 1), (n - k, 1)) for k in range(1, l + 1)]
    conj = [wneg(g) for g in cert]
    tube = n % 2 == 0
    if not tube:
        cert.append(basis_sum(n, (l, 1), (l + 1, 1)))
        conj.append(basis_sum(n, (l - 1, -1), (l, -1)))
    return (1,) * n, cert, conj, tube


# the E-series certificates at the scale 2 of their root data
_EPS1 = (-1, -1, -1, -1, 1, -1, -1, 1)
_EPS2 = (-1, -1, 1, 1, 1, -1, -1, 1)
_ETA1 = (-1, 1, -1, -1, 1, 1, -1, 1)
_ETA2 = (-1, -1, 1, 1, -1, 1, -1, 1)


def _e6_m14_data():
    z = (0, 0, 0, 0, 0, -1, -1, 1)  # central direction e8 - e7 - e6
    compact = [basis_sum(8, (0, 2), (4, 2)), basis_sum(8, (1, 2), (4, 2))]  # e1 + e5, e2 + e5
    cert = [_EPS1, _EPS2] + compact
    # conjugate set: negate the noncompact members only; negating the compact
    # members would make the set unusable against any chamber
    conj = [wneg(_EPS1), wneg(_EPS2)] + compact
    return z, cert, conj, False


def _e7_m25_data():
    z = (0, 0, 0, 0, 0, 2, -1, 1)  # direction orthogonal to the e6 part
    cert = [_ETA1, _ETA2, basis_sum(8, (0, 2), (5, 2))]  # e1 + e6
    return z, cert, [wneg(g) for g in cert], True


_HERMITIAN_BUILDERS = {"su_pq": _su_pq_data, "sp_n_R": _sp_nr_data, "so_star": _so_star_data,
                       "e6_m14": _e6_m14_data, "e7_m25": _e7_m25_data}


@functools.lru_cache(maxsize=None)
def hermitian_data(label: str) -> HermitianData:
    """Assemble the realized Hermitian form and its certificate sets on the
    int points of its base system.  K is the centralizer of the central
    direction z, so a root is compact when it pairs to 0 with z; the
    holomorphic system is positive on z for noncompact roots and on a fixed
    vector v for the compact ones."""
    name, params, system = parse_label(label, "hermitian")
    scale, roots, _ = _base_system(*system)
    z, cert, conj, tube = _HERMITIAN_BUILDERS[name](*params)
    # regular for the compact roots; for E, huge last coordinates so that the
    # half-integer compact roots of e7_m25 never vanish against it
    v = (5, 4, 3, 2, 1, 0, -64, 64) if name in ("e6_m14", "e7_m25") else tuple(range(len(z), 0, -1))
    points, simple = positive_roots(roots, (z, v))
    rd = RootDatum(label, identity_form(len(z)), scale, points, simple,
                   tuple(not sum(map(mul, z, p)) for p in points))
    position = {p: (i, 1) for i, p in enumerate(points)}
    position.update({wneg(p): (i, -1) for i, p in enumerate(points)})

    def signed_position(g):
        if g not in position:
            weight = format_weight(Fraction(x, scale) for x in g)
            raise InternalError(f"certificate element {weight} is not a root of {label}")
        return position[g]

    return HermitianData(label, rd, positive_system(rd), tuple(map(signed_position, cert)),
                         tuple(map(signed_position, conj)), tube)


def holomorphic_chamber_parameter(hd: HermitianData) -> Weight:
    """The half-sum of the holomorphic system: a regular integral parameter
    in the holomorphic chamber."""
    return hd.psi_h.rho


def antiholomorphic_chamber_parameter(hd: HermitianData) -> Weight:
    """The half-sum of the holomorphic system with its noncompact roots negated."""
    return PositiveSystem(hd.rd, tuple(1 if c else -1 for c in hd.rd.compact)).rho


def validate_hermitian_parameter(hd: HermitianData, lam: Weight) -> tuple[int, ...]:
    """Regular, integral, dominant for the compact part of the holomorphic
    system; returns the chamber of lam as signs by position in
    ``hd.rd.positive`` (see HermitianData), from the same one int pairing
    per positive root."""
    pairings = regular_integral_pairings(hd.rd, lam)
    if any(c <= 0 for c, k in zip(pairings, hd.rd.compact) if k):
        raise DomainError("parameter is not dominant for the compact positive system")
    return tuple(1 if c > 0 else -1 for c in pairings)


def kss_admissible_system(hd: HermitianData, chamber: tuple[int, ...]) -> bool:
    """Admissibility over the semisimple factor of K decided from the
    chamber, given as signs by position (``PositiveSystem.signs`` of a
    chamber's system, or ``validate_hermitian_parameter``).

    Containment of a certificate set in the chamber system is an obstruction
    for tube forms and a certificate for non-tube forms; see HermitianData.
    """
    contained = any(all(chamber[i] == s for i, s in pairs)
                    for pairs in (hd.certificate, hd.certificate_conjugate))
    return (not contained) if hd.tube else contained


def kss_admissible(hd: HermitianData, lam: Weight) -> bool:
    return kss_admissible_system(hd, validate_hermitian_parameter(hd, lam))


def kss_admissible_report(hd: HermitianData, lam: Weight):
    """(decision, reason) pair for user-facing output."""
    admissible = kss_admissible(hd, lam)
    contained = admissible != hd.tube
    if hd.tube:
        reason = (
            "tube domain: an obstruction set lies in the chamber system"
            if contained
            else "tube domain: no obstruction set lies in the chamber system"
        )
    else:
        reason = (
            "a certificate set lies in the chamber system"
            if contained
            else "no certificate set lies in the chamber system"
        )
    return admissible, reason
