"""Realized root systems with compact/noncompact labels, positive systems,
the walk over the chambers that contain the compact positive system, and
whole-group Weyl machinery (generation, minimal coset representatives) kept
as a brute-force reference.

Every family's root system is realized here (``_base_system``) and born on
int points, at scale 2 for F4 and E and 1 otherwise: the quaternionic forms,
sp(1, q) and the Hermitian forms all take their roots from it and split them
by the sign of int covectors (``positive_roots``), for the quaternionic
forms the sum of the fundamental coweights (Humphreys, Introduction to Lie
Algebras, 10.1), which also reads the highest root as the one of greatest
height.  A datum shows its roots as Fraction weights only on first use.

All systems live in standard Bourbaki coordinates with the Euclidean inner
product.  Every quantity consumed downstream (coroot pairings, Weyl
polynomial ratios, sign tests, orthogonal projections) is invariant under
positive rescaling of the form, so the Euclidean normalization is safe even
where the Killing form would differ by a factor.

Compactness for the quaternionic families, sp(1, q) among them as the one of
type C, is derived uniformly from the pairing with the coroot of the highest
root b: pairing 0 or 2 means compact, pairing 1 means noncompact.  A datum
keeps it by position in its positive roots, with b's position, so a reader
needs no lookup by weight.

Every form label is one row of ``FORMS``: its kind, its parameters and their
rule, and its base system (family, rank), and so the number of coordinates
and the datum's size before any root is built.  ``parse_label`` reads it for
the CLI, the datum builders and ``list-forms``; a new form is one row plus
its builder.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .errors import ConfigurationError, DomainError, InternalError, ResourceError
from .lattice import (
    InnerProductForm,
    Matrix,
    Weight,
    dual_covectors,
    format_weight,
    identity_form,
    identity_matrix,
    mat_mul,
    reflect,
    reflect_point,
    reflection_matrix,
    scaled_points,
    wneg,
    zero_weight,
)

Point = tuple[int, ...]


def _weights(points, scale: int) -> tuple[Weight, ...]:
    """The weights p / scale of int points p, sharing a Fraction per value."""
    value = {x: Fraction(x, scale) for x in set().union(*points)}
    return tuple(tuple(map(value.__getitem__, p)) for p in points)


@dataclass(frozen=True, eq=False)
class RootDatum:
    """A realized root system with a fixed positive system and compactness
    labels, held as the positive roots' int points, ``scale`` times their
    weights, in sorted order; ``roots``, ``positive`` and ``simple`` are
    Fraction views, built on first use."""

    label: str
    form: InnerProductForm
    scale: int
    int_positive: tuple[Point, ...]
    simple_at: tuple[int, ...]  # the simple roots' positions in int_positive, in their order
    compact: tuple[bool, ...]  # by position in positive; a root and its negative agree
    highest: int | None = None  # the highest root's position, where it labels compactness
    covectors: tuple[Point, ...] | None = None  # dual to the simple roots, where they are given

    @functools.cached_property
    def positive(self) -> tuple[Weight, ...]:
        return _weights(self.int_positive, self.scale)

    @functools.cached_property
    def roots(self) -> tuple[Weight, ...]:
        return _weights(sorted([*self.int_positive, *map(wneg, self.int_positive)]), self.scale)

    @functools.cached_property
    def simple(self) -> tuple[Weight, ...]:
        return _weights([self.int_positive[i] for i in self.simple_at], self.scale)

    def is_compact(self, gamma: Weight) -> bool:
        """Whether the root gamma is compact, found by weight in ``positive``."""
        neg = wneg(gamma)
        return self.compact[[g == gamma or g == neg for g in self.positive].index(True)]

    @functools.cached_property
    def compact_positive(self) -> tuple[Weight, ...]:
        return tuple(g for g, c in zip(self.positive, self.compact) if c)

    @functools.cached_property
    def noncompact_positive(self) -> tuple[Weight, ...]:
        return tuple(g for g, c in zip(self.positive, self.compact) if not c)

    @functools.cached_property
    def points(self):
        """(D, points, norms): the positive roots by position as int points
        at their common denominator D, with their norms (built on first use)."""
        return self.scale, self.int_positive, tuple(sum(map(mul, a, a)) for a in self.int_positive)


@dataclass(frozen=True, eq=False)
class PositiveSystem:
    """A positive system inside a RootDatum, held by position: it holds s g
    for the root g at position i of ``parent.positive`` and s = signs[i].
    Its half-sum and roots are views, built on first use."""

    parent: RootDatum
    signs: tuple[int, ...]

    @functools.cached_property
    def rho(self) -> Weight:
        """Half the signed sum of the parent's int points."""
        scale, points, _ = self.parent.points
        return tuple(Fraction(sum(map(mul, self.signs, x)), 2 * scale)
                     for x in zip(*points)) or zero_weight(self.parent.form.dim)

    @functools.cached_property
    def chosen(self) -> tuple[Weight, ...]:
        """The system's roots as weights, in sorted order."""
        return tuple(sorted(g if s > 0 else wneg(g)
                            for g, s in zip(self.parent.positive, self.signs)))


def positive_system(rd: RootDatum) -> PositiveSystem:
    """The datum's own positive system ``rd.positive``."""
    return PositiveSystem(rd, (1,) * len(rd.int_positive))


@dataclass(frozen=True)
class WeylElement:
    """Group element with a reduced word in the supplied generators."""

    word: tuple[int, ...]
    matrix: Matrix
    sign: int


# ---------------------------------------------------------------------------
# root collections per family, as int points in Bourbaki coordinates: each
# builder returns (scale, roots, simple roots), each point scale times a weight


def basis_sum(n: int, *terms) -> Point:
    """The int point sum of c e_i over the terms (i, c), in Z^n."""
    v = [0] * n
    for i, c in terms:
        v[i] += c
    return tuple(v)


def _steps(n: int, length: int) -> list[Point]:
    """The simple roots e_i - e_{i+1} for i < length, in Z^n."""
    return [basis_sum(n, (i, 1), (i + 1, -1)) for i in range(length)]


def _pairs(n: int, c: int = 1) -> list[Point]:
    """The roots c (+-e_i +- e_j) for i < j, in Z^n."""
    return [basis_sum(n, (i, si * c), (j, sj * c))
            for i in range(n) for j in range(i + 1, n) for si in (1, -1) for sj in (1, -1)]


def _axes(n: int, c: int) -> list[Point]:
    """The roots +-c e_i, in Z^n."""
    return [basis_sum(n, (i, s * c)) for i in range(n) for s in (1, -1)]


def _type_a(rank: int):
    n = rank + 1
    roots = [basis_sum(n, (i, 1), (j, -1)) for i in range(n) for j in range(n) if i != j]
    return 1, roots, _steps(n, rank)


def _type_bc(rank: int, c: int):
    """B (c = 1) or C (c = 2): the short or long roots c e_i on the axes."""
    last = basis_sum(rank, (rank - 1, c))
    return 1, _pairs(rank) + _axes(rank, c), _steps(rank, rank - 1) + [last]


def _type_d(rank: int):
    last = basis_sum(rank, (rank - 2, 1), (rank - 1, 1))
    return 1, _pairs(rank), _steps(rank, rank - 1) + [last]


def _type_g2(_rank: int):
    a1, a2 = (1, -1, 0), (-2, 1, 1)
    pos = [tuple(i * x + j * y for x, y in zip(a1, a2))
           for i, j in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))]
    return 1, pos + [wneg(g) for g in pos], [a1, a2]


def _type_f4(_rank: int):
    roots = _pairs(4, 2) + _axes(4, 2) + list(product((1, -1), repeat=4))
    return 2, roots, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]


def _halves(n: int, parity: int, fixed: tuple) -> list[Point]:
    """+-(s + fixed) for s of n entries +-1 with parity minus signs mod 2."""
    halves = [s + fixed for s in product((1, -1), repeat=n) if s.count(-1) % 2 == parity]
    return halves + [wneg(g) for g in halves]


def _type_e(rank: int):
    simples = [(1, -1, -1, -1, -1, -1, -1, 1), basis_sum(8, (0, 2), (1, 2))] + [
        basis_sum(8, (i, -2), (i + 1, 2)) for i in range(6)]
    pairs = [r for r in _pairs(8, 2) if not any(r[rank - 1:])] if rank < 8 else _pairs(8, 2)
    if rank == 8:  # the halves with an even number of minus signs
        roots = pairs + [s for s in product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
    elif rank == 7:  # +-(e8 - e7), and +-(e8 - e7 + (+-e1 ... +-e6)) / 2 with odd signs
        roots = pairs + [basis_sum(8, (6, -2), (7, 2)), basis_sum(8, (6, 2), (7, -2))]
        roots += _halves(6, 1, (-1, 1))
    else:
        roots = pairs + _halves(5, 0, (-1, -1, 1))
    return 2, roots, simples[:rank]


# ---------------------------------------------------------------------------
# assembly


def positive_roots(roots, covectors, simples=None) -> tuple[tuple[Point, ...], tuple[int, ...]]:
    """(the positive roots in sorted order, the simple roots' positions among
    them), on int points: a root is positive when its first nonzero pairing
    with the covectors is.  The simple roots are found (``simple_positions``)
    or are ``simples``, checked against that search.  InternalError when a
    root pairs to 0 with every covector (with one covector in the span of the
    simple roots: a root outside that span)."""
    positive = []
    for p in roots:
        for f in covectors:
            if n := sum(map(mul, f, p)):
                break
        else:
            raise InternalError("a root pairs to 0 with every covector of the positive system")
        if n > 0:
            positive.append(p)
    positive.sort()
    found = simple_positions(positive)
    if simples is None:
        return tuple(positive), found
    given = tuple(map({p: i for i, p in enumerate(positive)}.__getitem__, simples))
    if tuple(sorted(given)) != found:
        raise InternalError("the given simple roots are not the simple roots of their chamber")
    return tuple(positive), given


def simple_elements(positives, form: InnerProductForm):
    """The simple roots of a positive system in sorted order, found on its
    int points by ``simple_positions``; ``form`` names the ambient space."""
    _, points = scaled_points(positives)
    return tuple(sorted(positives[i] for i in simple_positions(points)))


def simple_positions(points) -> tuple[int, ...]:
    """The positions of the simple roots among the int points of a positive
    system.  A positive root that is not simple pairs positively with some
    simple root a, and less a it is positive (Humphreys, 10.2, Corollary to
    Lemma A), so a comes first by the pairing with 2 rho; two simple roots
    pair to <= 0.  Each pairing is read on the root's nonzero coordinates."""
    two_rho = tuple(map(sum, zip(*points)))
    entries: dict[int, list] = {}  # coordinate -> [(k, entry)] for the k-th simple root
    simple: list[int] = []
    for i in sorted(range(len(points)), key=lambda i: sum(map(mul, points[i], two_rho))):
        support = [(c, x) for c, x in enumerate(points[i]) if x]
        pairings = [0] * len(simple)
        for c, x in support:
            for k, y in entries.get(c, ()):
                pairings[k] += x * y
        if max(pairings, default=0) <= 0:
            for c, x in support:
                entries.setdefault(c, []).append((len(simple), x))
            simple.append(i)
    return tuple(sorted(simple))


def height_covector(simples, covectors) -> Point:
    """The sum of the fundamental coweights of the simple roots, from their
    dual covectors, times the least m that makes it int: it pairs with a
    root to m times its height over the simple roots."""
    norms = [sum(map(mul, f, a)) for f, a in zip(covectors, simples)]
    m = lcm(*norms)
    return tuple(sum(m // n * x for n, x in zip(norms, column)) for column in zip(*covectors))


def _highest(points, height) -> int:
    """The position of the positive root of greatest height, for ``height``
    pairing to one positive value with every simple root: in an irreducible
    system the highest root (Humphreys, 10.4, Lemma A); a tie means a
    reducible system."""
    heights = [sum(map(mul, height, p)) for p in points]
    top = max(heights)
    if heights.count(top) != 1:
        raise InternalError("highest root is not unique; reducible system?")
    return heights.index(top)


_BASE_BUILDERS = {"A": _type_a, "B": functools.partial(_type_bc, c=1),
                  "C": functools.partial(_type_bc, c=2), "D": _type_d, "G": _type_g2,
                  "F": _type_f4, "E": _type_e}


def _base_system(family: str, rank: int):
    """(scale, roots, simple roots) of the base system, as int points."""
    return _BASE_BUILDERS[family](rank)


def ambient_dimension(family: str, rank: int) -> int:
    """The number of coordinates of ``_base_system(family, rank)``."""
    return {"A": rank + 1, "G": 3, "E": 8}.get(family, rank)


def datum_size(family: str, rank: int) -> int:
    """The number of positive roots times the number of coordinates of
    ``_base_system(family, rank)``, counted without building it."""
    positive = {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank,
                "D": rank * (rank - 1), "G": 6, "F": 24, "E": {6: 36, 7: 63, 8: 120}.get(rank)}
    return positive[family] * ambient_dimension(family, rank)


# A label ``name:<params>`` (``name`` with no parameter): kind ``quat``, ``sp1q`` or
# ``hermitian``; the rule on the int parameters is (test, error class, text).
Form = namedtuple("Form", "kind placeholder system rule", defaults=((),))

FORMS = {
    "g2_2": Form("quat", "", lambda: ("G", 2)),
    "f4_4": Form("quat", "", lambda: ("F", 4)),
    "e6_2": Form("quat", "", lambda: ("E", 6)),
    "e7_m5": Form("quat", "", lambda: ("E", 7)),
    "e8_m24": Form("quat", "", lambda: ("E", 8)),
    "su2_n": Form("quat", "<n>", lambda n: ("A", n + 1),
                  (lambda n: n >= 1, ConfigurationError, "su2_n requires n >= 1")),
    "so4_n": Form("quat", "<n>", lambda n: ("B" if n % 2 else "D", (4 + n) // 2),
                  (lambda n: n >= 3, ConfigurationError, "so4_n requires n >= 3")),
    "sp1_q": Form("sp1q", "<q>", lambda q: ("C", q + 1),
                  (lambda q: q >= 2, ConfigurationError, "sp(1, q) branching requires q >= 2")),
    "su_pq": Form("hermitian", "<p>,<q>", lambda p, q: ("A", p + q - 1), (
        lambda p, q: 1 <= p <= q, DomainError, "su(p, q) certificates require 1 <= p <= q")),
    "so_star": Form("hermitian", "<n>", lambda n: ("D", n),
                    (lambda n: n >= 3, DomainError, "so*(2n) requires n >= 3")),
    "sp_n_R": Form("hermitian", "<n>", lambda n: ("C", n),
                   (lambda n: n >= 1, DomainError, "sp(n, R) requires n >= 1")),
    "e6_m14": Form("hermitian", "", lambda: ("E", 6)),
    "e7_m25": Form("hermitian", "", lambda: ("E", 7)),
}


def parse_label(label: str, *kinds: str):
    """(name, int parameters, base system (family, rank)) of a form label of
    one of ``kinds``, its parameters checked against its ``FORMS`` rule."""
    name, _, param = label.partition(":")
    form = FORMS.get(name)
    if form is None or form.kind not in kinds:
        raise ConfigurationError(f"unsupported {' or '.join(kinds)} form label {label!r}")
    try:
        params = tuple(map(int, param.split(","))) if param else ()
    except ValueError:
        params = None
    if params is None or len(params) != form.placeholder.count("<"):
        raise ConfigurationError(f"bad {name} parameter {param!r}")
    if form.rule and not form.rule[0](*params):
        raise form.rule[1](form.rule[2])
    return name, params, form.system(*params)


@functools.lru_cache(maxsize=None)
def quaternionic_root_datum(label: str) -> RootDatum:
    """RootDatum for one of the quaternionic real forms, by a label of
    kind ``quat`` in ``FORMS``, e.g. ``g2_2``, ``su2_n:3``, ``so4_n:4``."""
    return _highest_root_datum(label, *parse_label(label, "quat")[2])


def _highest_root_datum(label: str, family: str, rank: int) -> RootDatum:
    """The base system with compactness assigned by the highest-root coroot
    pairing rule, which realizes the quaternionic real form: sp(1, q) is the
    one of type C (``label`` names the datum).  Its positive roots pair
    positively with the ``height_covector`` of the simple roots' dual
    covectors, which the datum keeps."""
    scale, roots, simples = _base_system(family, rank)
    covectors = dual_covectors(simples)
    height = height_covector(simples, covectors)
    points, simple = positive_roots(roots, [height], simples)
    top = _highest(points, height)
    b = points[top]
    bb = sum(map(mul, b, b))
    compact = []
    for p in points:  # n / bb = <g, beta-check>
        n = 2 * sum(map(mul, p, b))
        if n not in (0, bb, 2 * bb):
            raise InternalError(f"unexpected highest-root pairing {Fraction(n, bb)} "
                                f"for {format_weight(_weights([p], scale)[0])}")
        compact.append(n != bb)
    return RootDatum(label, identity_form(len(b)), scale, points, simple, tuple(compact), top,
                     covectors)


def small_system(rd: RootDatum):
    """The distinguished positive system with compact maximal root.

    Returns (PositiveSystem, beta, alpha) where beta is the maximal root,
    compact by the highest-root rule, and alpha a noncompact simple root with
    2(beta, alpha)/(alpha, alpha) = 1.  Verifies that the noncompact simple
    coefficients of beta sum to 2, read on int points as (f_i, beta) / (f_i, a_i)
    with the datum's covectors f_i.
    """
    b = rd.int_positive[rd.highest]
    simple = [rd.int_positive[i] for i in rd.simple_at]
    noncompact = [2 * sum(map(mul, a, b)) == sum(map(mul, b, b)) for a in simple]
    coeffs = [divmod(sum(map(mul, f, b)), sum(map(mul, f, a)))
              for f, a in zip(rd.covectors, simple)]
    if any(r for _, r in coeffs) or sum(c for (c, _), n in zip(coeffs, noncompact) if n) != 2:
        raise InternalError("noncompact simple coefficients of the maximal root do not sum to 2")
    candidates = [k for k, (a, n) in enumerate(zip(simple, noncompact))
                  if n and 2 * sum(map(mul, b, a)) == sum(map(mul, a, a))]
    if not candidates:
        raise InternalError("no noncompact simple root pairs to 1 with the maximal root")
    alpha = rd.simple[candidates[0]]  # deterministic: first in simple-root order
    return positive_system(rd), rd.positive[rd.highest], alpha


def weyl_generate(form: InnerProductForm, generators, order_bound=10**6):
    """Enumerate the reflection group generated by the given roots.

    Breadth-first over reduced words; output sorted by (word length, word),
    each element carrying its matrix and sign.  Raises ResourceError when the
    group order would exceed ``order_bound``.
    """
    gens = [reflection_matrix(g) for g in generators]
    ident = identity_matrix(form.dim)
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            w = seen[m]
            for i, g in enumerate(gens):
                m2 = mat_mul(g, m)
                if m2 not in seen:
                    seen[m2] = w + (i,)
                    nxt.append(m2)
                    if len(seen) > order_bound:
                        raise ResourceError(
                            f"Weyl group order exceeds the bound {order_bound}"
                        )
        frontier = nxt
    elements = [
        WeylElement(word=tuple(reversed(word)), matrix=m, sign=(-1) ** len(word))
        for m, word in seen.items()
    ]
    elements.sort(key=lambda e: (len(e.word), e.word))
    return tuple(elements)


def coset_reps(elements, subsystem_positive, form: InnerProductForm):
    """Minimal-length representatives of the right cosets W_sub \\ W.

    ``elements`` must be the full enumeration of W; ``subsystem_positive``
    the positive roots of a reflection-closed subsystem.  Each coset has a
    unique minimal-length element; ties raise InternalError.
    """
    for a in subsystem_positive:
        for b in subsystem_positive:
            r = reflect(form, b, a)
            if r not in subsystem_positive and wneg(r) not in subsystem_positive:
                raise DomainError("subsystem is not closed under its own reflections")
    sub_simple = simple_elements(subsystem_positive, form)
    sub = weyl_generate(form, sub_simple)
    by_matrix = {e.matrix: e for e in elements}
    assigned = set()
    reps = []
    for e in elements:  # sorted by length already
        if e.matrix in assigned:
            continue
        coset = []
        for z in sub:
            m = mat_mul(z.matrix, e.matrix)
            member = by_matrix.get(m)
            if member is None:
                raise DomainError("subsystem reflections do not normalize the group")
            coset.append(member)
        minimal = [c for c in coset if len(c.word) == min(len(c.word) for c in coset)]
        if len(minimal) != 1:
            raise InternalError("minimal coset representative is not unique")
        reps.append(minimal[0])
        assigned.update(c.matrix for c in coset)
    if len(reps) * len(sub) != len(elements):
        raise InternalError("coset partition does not cover the group")
    return tuple(reps)


def chambers(rd: RootDatum) -> list[PositiveSystem]:
    """All positive systems of the full root system whose compact part is
    that of ``rd.positive``, in the order of a walk that starts there.

    Their chambers fill the convex cone where the compact positive system is
    dominant, so a breadth-first walk across noncompact walls reaches each
    of them once (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).  A
    chamber is its sign vector and carries its simple roots as int points:
    crossing the wall of a noncompact simple root g flips g's sign and
    reflects the simple roots by s_g.  Any other compact chamber is
    W_K-conjugate to that of ``rd.positive``, so no other start is needed.
    """
    _, points, _ = rd.points
    position = {p: i for i, p in enumerate(points)}
    position.update({wneg(p): i for i, p in enumerate(points)})
    start = (1,) * len(points)
    queue, seen = [(start, [points[i] for i in rd.simple_at])], {start}
    for signs, simple in queue:  # breadth first: the queue grows as it is read
        for g in simple:
            i = position[g]
            crossed = (*signs[:i], -signs[i], *signs[i + 1:])
            if not rd.compact[i] and crossed not in seen:
                seen.add(crossed)
                gg = sum(map(mul, g, g))
                queue.append((crossed, [reflect_point(b, g, gg) for b in simple]))
    return [PositiveSystem(rd, signs) for signs, _ in queue]
